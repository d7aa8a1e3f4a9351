(* Ranked locks and the runtime lock-order witness. See locks.mli for the
   discipline and DESIGN.md §15 for the rank table. This module is the
   one place in the repo allowed to touch raw [Mutex]/[Condition] (the
   [raw-mutex] lint rule exempts it): everything else goes through [t]. *)

type mode =
  | Off
  | Count
  | Raise

exception Order_violation of string

type t = {
  l_id : int;
  l_name : string;
  l_rank : int;
  l_mutex : Mutex.t;
}

let next_id = Atomic.make 0

let create ~name ~rank =
  if rank <= 0 then invalid_arg "Locks.create: rank must be positive";
  { l_id = Atomic.fetch_and_add next_id 1; l_name = name; l_rank = rank;
    l_mutex = Mutex.create () }

let name l = l.l_name
let rank l = l.l_rank

(* Canonical ranks. Fan-out runs under a catalog shard lock
   (catalog.shard → exec.pool[try] → exec.worker), so the mailboxes are
   the innermost blocking rank — see DESIGN.md §15 for the chain
   inventory. *)
let rank_pool = 10
let rank_catalog_map = 14
let rank_shard = 20
let rank_queue = 24
let rank_conn_write = 30
let rank_loadgen = 50
let rank_latch = 70
let rank_worker_mailbox = 80
let rank_registry = 90

(* ------------------------------ witness ----------------------------- *)

let mode_of_env () =
  match Sys.getenv_opt "UXSM_LOCK_WITNESS" with
  | None -> Off
  | Some v -> (
    match String.trim (String.lowercase_ascii v) with
    | "" | "0" | "off" -> Off
    | "raise" -> Raise
    | _ -> Count)

let current_mode = Atomic.make (mode_of_env ())
let mode () = Atomic.get current_mode
let set_mode m = Atomic.set current_mode m

let violation_count = Atomic.make 0
let violations () = Atomic.get violation_count
let reset_violations () = Atomic.set violation_count 0

let violation_hook : (string -> unit) Atomic.t = Atomic.make (fun (_ : string) -> ())
let set_violation_hook f = Atomic.set violation_hook f

(* One held-entry stack per (domain, sys-thread): the issue asked for a
   domain-local stack, but the server runs several sys-threads inside the
   main domain (readers, dispatcher) and their interleaved acquisitions
   would corrupt a per-domain stack — so the key is the pair. Stacks are
   only ever pushed/popped by their owning thread; the guard protects the
   table itself. Entries are (lock id, rank, name), innermost first. *)
let stacks_guard = Mutex.create ()

(* lint: allow domain-unsafe — per-thread stack table, looked up under stacks_guard; each stack is touched only by its owning thread *)
let stacks : (int * int, (int * int * string) list ref) Hashtbl.t = Hashtbl.create 64

let my_stack () =
  let key = ((Domain.self () :> int), Thread.id (Thread.self ())) in
  Mutex.lock stacks_guard;
  let r =
    match Hashtbl.find_opt stacks key with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add stacks key r;
      r
  in
  Mutex.unlock stacks_guard;
  r

let held () =
  match mode () with
  | Off -> []
  | Count | Raise -> List.map (fun (_, r, n) -> (n, r)) !(my_stack ())

let report msg raise_it =
  Atomic.incr violation_count;
  (Atomic.get violation_hook) msg;
  if raise_it then raise (Order_violation msg)

(* The order check runs before the blocking [Mutex.lock]: in [Raise] mode
   an inversion surfaces as an exception at the acquisition site rather
   than as a wedged test run. *)
let check_order stack l ~raise_it =
  match List.find_opt (fun (_, r, _) -> r >= l.l_rank) !stack with
  | None -> ()
  | Some (_, hr, hn) ->
    report
      (Printf.sprintf
         "lock-order violation: acquiring %s (rank %d) while holding %s (rank %d)"
         l.l_name l.l_rank hn hr)
      raise_it

let push stack l = stack := (l.l_id, l.l_rank, l.l_name) :: !stack

let pop stack l =
  let rec remove = function
    | [] -> []
    | (id, _, _) :: rest when id = l.l_id -> rest
    | e :: rest -> e :: remove rest
  in
  stack := remove !stack

let lock l =
  (match mode () with
  | Off -> Mutex.lock l.l_mutex
  | m ->
    let st = my_stack () in
    check_order st l ~raise_it:(m = Raise);
    Mutex.lock l.l_mutex;
    push st l)

let unlock l =
  (match mode () with
  | Off -> ()
  | Count | Raise -> pop (my_stack ()) l);
  Mutex.unlock l.l_mutex

(* No order check: a non-blocking acquire cannot be the blocking edge of
   a deadlock cycle. On success the lock still joins the stack, so later
   blocking acquisitions are checked against it. *)
let try_lock l =
  if Mutex.try_lock l.l_mutex then begin
    (match mode () with
    | Off -> ()
    | Count | Raise -> push (my_stack ()) l);
    true
  end
  else false

let with_lock l f =
  lock l;
  Fun.protect ~finally:(fun () -> unlock l) f

(* --------------------------- conditions ----------------------------- *)

type cond = Condition.t

let cond () = Condition.create ()

(* Waiting re-acquires [l] when signalled; if [l] is not the innermost
   held lock, that re-acquisition happens beneath a higher held rank —
   the same inversion [lock] guards against — so the witness requires
   top-of-stack. The stack is left unchanged across the wait: it is
   thread-private and the thread is blocked for the whole gap. *)
let wait c l =
  (match mode () with
  | Off -> ()
  | m -> (
    match !(my_stack ()) with
    | (id, _, _) :: _ when id = l.l_id -> ()
    | (_, hr, hn) :: _ ->
      report
        (Printf.sprintf
           "lock-order violation: waiting on %s (rank %d) while %s (rank %d) is held \
            innermost"
           l.l_name l.l_rank hn hr)
        (m = Raise)
    | [] ->
      report
        (Printf.sprintf "lock-order violation: waiting on %s without holding it" l.l_name)
        (m = Raise)));
  Condition.wait c l.l_mutex

let signal = Condition.signal
let broadcast = Condition.broadcast

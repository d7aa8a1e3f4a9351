module Obs = Uxsm_obs.Obs
module Locks = Uxsm_util.Locks

(* Observability: the executor's scheduling decisions, so the fix for the
   per-call-spawn regression stays measurable. [domains_spawned] counts
   real [Domain.spawn]s — with the warm pool it is bounded by the pool
   width for the whole process lifetime, which the CI parallel-smoke job
   asserts against the bench records. *)
let c_spawned = Obs.counter "exec.domains_spawned"
let c_parallel = Obs.counter "exec.parallel_calls"
let c_tasks = Obs.counter "exec.tasks"
let c_chunks = Obs.counter "exec.chunks"
let c_nested_seq = Obs.counter "exec.nested_sequential"
let c_busy_seq = Obs.counter "exec.sequential_busy"

type t =
  | Sequential
  | Domains of int

let sequential = Sequential

let domains n =
  if n < 1 then invalid_arg "Executor.domains: pool size must be >= 1";
  Domains n

let of_jobs n =
  if n < 1 then invalid_arg "Executor.of_jobs: jobs must be >= 1";
  if n = 1 then Sequential else Domains n

let jobs = function
  | Sequential -> 1
  | Domains n -> n

let backend_name = function
  | Sequential -> "sequential"
  | Domains _ -> "domains"

let is_parallel = function
  | Sequential | Domains 1 -> false
  | Domains _ -> true

(* ---------------------------- warm pool ---------------------------- *)

(* Workers mark their domain so a nested bulk operation degrades to
   sequential execution instead of deadlocking on the pool. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* One pool worker: a parked domain with a single-slot mailbox. The
   submitter stores a job closure and signals; the worker runs it, clears
   the slot, and signals completion on the same condition. One mutex and
   condition per worker keeps submission free of generation counters and
   thundering-herd wakeups — pools here are a handful of domains wide. *)
type worker = {
  w_lock : Locks.t;
  w_cond : Locks.cond;
  mutable w_job : (unit -> unit) option;
  mutable w_stop : bool;
  mutable w_domain : unit Domain.t option;
}

let rec worker_loop w =
  Locks.lock w.w_lock;
  while w.w_job = None && not w.w_stop do
    Locks.wait w.w_cond w.w_lock
  done;
  if w.w_stop then Locks.unlock w.w_lock
  else begin
    let job =
      match w.w_job with
      | Some j -> j
      | None -> assert false
    in
    Locks.unlock w.w_lock;
    (* The job closure confines every exception to its shared error slot;
       this handler only shields the pool from a bug in that closure. *)
    (* lint: allow catch-all — a worker must survive any job to stay parkable; jobs record their own errors *)
    (try job () with _ -> ());
    Locks.lock w.w_lock;
    w.w_job <- None;
    Locks.broadcast w.w_cond;
    Locks.unlock w.w_lock;
    worker_loop w
  end

(* Pool state. [pool_lock] serializes pool growth, bulk submission and
   shutdown: exactly one bulk operation drives the workers at a time (a
   concurrent bulk call from another domain degrades to sequential rather
   than blocking), so workers only ever synchronize through their own
   mailboxes. *)
(* lint: allow domain-unsafe — all access is under pool_lock (see above) *)
let pool : worker array ref = ref [||]

let pool_lock = Locks.create ~name:"exec.pool" ~rank:Locks.rank_pool

(* lint: allow domain-unsafe — read/written only under pool_lock *)
let exit_hook_registered = ref false

let spawn_worker () =
  let w =
    { w_lock = Locks.create ~name:"exec.worker" ~rank:Locks.rank_worker_mailbox;
      w_cond = Locks.cond (); w_job = None; w_stop = false; w_domain = None }
  in
  Obs.incr c_spawned;
  let d =
    Domain.spawn (fun () ->
        Domain.DLS.set in_worker true;
        worker_loop w)
  in
  w.w_domain <- Some d;
  w

(* Callers: must hold [pool_lock]. *)
let shutdown_locked () =
  Array.iter
    (fun w ->
      Locks.lock w.w_lock;
      w.w_stop <- true;
      Locks.broadcast w.w_cond;
      Locks.unlock w.w_lock)
    !pool;
  Array.iter
    (fun w ->
      match w.w_domain with
      (* lint: allow blocking-under-lock — joining under pool_lock is the shutdown contract: every worker has just been told to stop (it parks on its own mailbox and never takes pool_lock), and holding the lock keeps a concurrent submitter from re-growing the pool mid-shutdown *)
      | Some d -> Domain.join d
      | None -> ())
    !pool;
  pool := [||]

let shutdown () = Locks.with_lock pool_lock shutdown_locked

let pool_width () = Locks.with_lock pool_lock (fun () -> Array.length !pool)

(* Must hold [pool_lock]. Grows the pool to [n] workers; the pool keeps
   its high-water width until [shutdown] (workers park when idle). *)
let ensure_pool_locked n =
  if not !exit_hook_registered then begin
    exit_hook_registered := true;
    at_exit shutdown
  end;
  let have = Array.length !pool in
  if have < n then
    pool := Array.append !pool (Array.init (n - have) (fun _ -> spawn_worker ()))

(* ------------------------- bulk operations ------------------------- *)

(* Chunks per pool member: enough slack for the dynamic cursor to
   re-balance skewed item costs (one huge connected component among tiny
   ones), small enough that cursor traffic stays negligible. *)
let chunks_per_member = 4

let chunk_size ~members n = max 1 (n / (members * chunks_per_member))

(* One bulk operation on the warm pool: an atomic cursor hands out chunks
   of [csize] consecutive indices; every participant writes only its own
   slots of [results], so no lock is needed. The first exception wins —
   with its backtrace, captured at the catch site — and aborts the
   remaining chunks. *)
let parallel_map_locked ~members f (arr : 'a array) : 'b array =
  let n = Array.length arr in
  let csize = chunk_size ~members n in
  let n_chunks = (n + csize - 1) / csize in
  let results : 'b option array = Array.make n None in
  let next = Atomic.make 0 in
  let error : (exn * Printexc.raw_backtrace) option Atomic.t = Atomic.make None in
  Obs.incr c_parallel;
  Obs.add c_tasks n;
  Obs.add c_chunks n_chunks;
  let work () =
    let rec loop () =
      let start = Atomic.fetch_and_add next csize in
      if start < n && Atomic.get error = None then begin
        let stop = min n (start + csize) in
        (try
           let i = ref start in
           while !i < stop && Atomic.get error = None do
             results.(!i) <- Some (f arr.(!i));
             incr i
           done
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set error None (Some (e, bt))));
        loop ()
      end
    in
    loop ()
  in
  (* Workers inherit the submitter's backtrace status so the preserved
     backtrace of a worker-side raise is actually recorded. *)
  let bt_status = Printexc.backtrace_status () in
  let job () =
    if Printexc.backtrace_status () <> bt_status then Printexc.record_backtrace bt_status;
    work ()
  in
  let helpers = min (members - 1) (n_chunks - 1) in
  ensure_pool_locked helpers;
  let assigned = Array.sub !pool 0 helpers in
  Array.iter
    (fun w ->
      Locks.lock w.w_lock;
      w.w_job <- Some job;
      Locks.broadcast w.w_cond;
      Locks.unlock w.w_lock)
    assigned;
  (* The calling domain participates as the pool's last member, then waits
     for every assigned worker to drain its mailbox. *)
  Domain.DLS.set in_worker true;
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set in_worker false)
    (fun () ->
      work ();
      Array.iter
        (fun w ->
          Locks.lock w.w_lock;
          while w.w_job <> None do
            Locks.wait w.w_cond w.w_lock
          done;
          Locks.unlock w.w_lock)
        assigned);
  (match Atomic.get error with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  Array.map
    (function
      | Some v -> v
      | None -> assert false)
    results

let map_array t f arr =
  match t with
  | Sequential -> Array.map f arr
  | Domains pool_size when pool_size <= 1 -> Array.map f arr
  | Domains pool_size ->
    if Array.length arr <= 1 then Array.map f arr
    else if Domain.DLS.get in_worker then begin
      Obs.incr c_nested_seq;
      Array.map f arr
    end
    else if Locks.try_lock pool_lock then
      Fun.protect
        ~finally:(fun () -> Locks.unlock pool_lock)
        (fun () -> parallel_map_locked ~members:(min pool_size (Array.length arr)) f arr)
    else begin
      (* Another domain is driving the pool; racing it for workers is
         not worth blocking for — results are identical either way. *)
      Obs.incr c_busy_seq;
      Array.map f arr
    end

let map_list t f l =
  if is_parallel t then Array.to_list (map_array t f (Array.of_list l)) else List.map f l

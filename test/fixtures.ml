(* Shared fixtures: the paper's running example (Figures 1-3) and small
   random generators used by several suites. *)

module Schema = Uxsm_schema.Schema
module Mapping = Uxsm_mapping.Mapping
module Mapping_set = Uxsm_mapping.Mapping_set
module Matching = Uxsm_mapping.Matching

(* Figure 1(a): the XCBL-style source schema.
   ids: Order=0 BP=1 BOC=2 BCN=3 ROC=4 RCN=5 OOC=6 OCN=7 SP=8 *)
let fig1_source =
  Schema.of_spec
    (Schema.spec "Order"
       [
         Schema.spec "BP"
           [
             Schema.spec "BOC" [ Schema.spec "BCN" [] ];
             Schema.spec "ROC" [ Schema.spec "RCN" [] ];
             Schema.spec "OOC" [ Schema.spec "OCN" [] ];
           ];
         Schema.spec "SP" [];
       ])

(* Figure 1(b): the OpenTrans-style target schema.
   ids: ORDER=0 SP=1 SCN=2 IP=3 ICN=4 *)
let fig1_target =
  Schema.of_spec
    (Schema.spec "ORDER"
       [ Schema.spec "SP" [ Schema.spec "SCN" [] ]; Schema.spec "IP" [ Schema.spec "ICN" [] ] ])

let s_order = 0
let s_bp = 1
let s_bcn = 3
let s_rcn = 5
let s_ocn = 7
let s_sp = 8
let t_order = 0
let t_sp = 1
let t_scn = 2
let t_ip = 3
let t_icn = 4

(* The correspondences drawn in Figure 1 (scores .75/.84/.83/.84) plus the
   extra ones the five mappings of Figure 3 use. *)
let fig1_matching =
  Matching.create ~source:fig1_source ~target:fig1_target
    [
      { source = s_order; target = t_order; score = 0.9 };
      { source = s_bp; target = t_ip; score = 0.75 };
      { source = s_bp; target = t_sp; score = 0.4 };
      { source = s_sp; target = t_ip; score = 0.5 };
      { source = s_bcn; target = t_icn; score = 0.84 };
      { source = s_rcn; target = t_icn; score = 0.83 };
      { source = s_ocn; target = t_icn; score = 0.84 };
      { source = s_bcn; target = t_scn; score = 0.6 };
      { source = s_rcn; target = t_scn; score = 0.55 };
      { source = s_ocn; target = t_scn; score = 0.6 };
    ]

let mk_mapping pairs =
  let score =
    List.fold_left
      (fun acc (x, y) ->
        match Matching.score fig1_matching x y with
        | Some s -> acc +. s
        | None -> acc)
      0.0 pairs
  in
  Mapping.of_pairs ~source:fig1_source ~target:fig1_target ~score pairs

(* Figure 3: the five possible mappings m1..m5. *)
let fig3_m1 = mk_mapping [ (s_order, t_order); (s_bp, t_ip); (s_bcn, t_icn); (s_rcn, t_scn) ]
let fig3_m2 = mk_mapping [ (s_order, t_order); (s_bp, t_ip); (s_bcn, t_icn); (s_ocn, t_scn) ]

let fig3_m3 =
  mk_mapping [ (s_order, t_order); (s_sp, t_ip); (s_rcn, t_icn); (s_ocn, t_scn); (s_bp, t_sp) ]

let fig3_m4 = mk_mapping [ (s_order, t_order); (s_bp, t_ip); (s_rcn, t_icn); (s_bcn, t_scn) ]
let fig3_m5 = mk_mapping [ (s_order, t_order); (s_bp, t_ip); (s_ocn, t_icn); (s_bcn, t_scn) ]

(* The running example's mapping set; equal probabilities as in the paper's
   narrative (each mapping plausible). *)
let fig3_mset =
  Mapping_set.of_mappings fig1_matching
    [ (fig3_m1, 0.2); (fig3_m2, 0.2); (fig3_m3, 0.2); (fig3_m4, 0.2); (fig3_m5, 0.2) ]

(* Figure 2: a source document for Figure 1(a). *)
let fig2_doc_tree =
  let open Uxsm_xml.Tree in
  element "Order"
    [
      element "BP"
        [
          element "BOC" [ leaf "BCN" "Cathy" ];
          element "ROC" [ leaf "RCN" "Bob" ];
          element "OOC" [ leaf "OCN" "Alice" ];
        ];
      element "SP" [];
    ]

let fig2_doc = Uxsm_xml.Doc.of_tree fig2_doc_tree

(* Deterministic random schema generator for property tests: a tree with
   [n] elements and bounded fanout. Names are unique and nothing repeats,
   unless [repeated]: then names come from a three-letter alphabet (so a
   label recurs at many paths, nested in itself, and siblings can share a
   path) and about one element in three is repeatable. *)
let random_schema ?(repeated = false) prng ~n =
  if n < 1 then invalid_arg "random_schema";
  let next = ref 0 in
  let fresh prefix =
    if repeated then Uxsm_util.Prng.pick prng [| "a"; "b"; "c" |]
    else begin
      incr next;
      Printf.sprintf "%s%d" prefix !next
    end
  in
  let repeatable () = repeated && Uxsm_util.Prng.int prng 3 = 0 in
  let budget = ref (n - 1) in
  let rec grow depth =
    let name = fresh "e" in
    let kids = ref [] in
    let want = Uxsm_util.Prng.int prng 4 in
    for _ = 1 to want do
      if !budget > 0 && depth < 6 then begin
        decr budget;
        kids := grow (depth + 1) :: !kids
      end
    done;
    Schema.spec ~repeatable:(repeatable ()) name (List.rev !kids)
  in
  let root_kids = ref [] in
  let root = fresh "root" in
  while !budget > 0 do
    decr budget;
    root_kids := grow 1 :: !root_kids
  done;
  Schema.of_spec (Schema.spec root (List.rev !root_kids))

(* Random matching over random schemas: distinct correspondences with
   scores in (0, 1]. *)
let random_matching prng ~source_n ~target_n ~corrs =
  let source = random_schema prng ~n:source_n in
  let target = random_schema prng ~n:target_n in
  let seen = Hashtbl.create 16 in
  let cs = ref [] in
  let attempts = corrs * 4 in
  let made = ref 0 in
  let try_once () =
    if !made < corrs then begin
      let x = Uxsm_util.Prng.int prng (Schema.size source) in
      let y = Uxsm_util.Prng.int prng (Schema.size target) in
      if not (Hashtbl.mem seen (x, y)) then begin
        Hashtbl.add seen (x, y) ();
        let score = 0.05 +. Uxsm_util.Prng.float prng 0.95 in
        cs := { Matching.source = x; target = y; score } :: !cs;
        incr made
      end
    end
  in
  for _ = 1 to attempts do
    try_once ()
  done;
  Matching.create ~source ~target !cs

(* Random mapping set: a random matching's top-h mappings. *)
let random_mapping_set prng ~source_n ~target_n ~corrs ~h =
  Mapping_set.generate ~h (random_matching prng ~source_n ~target_n ~corrs)

(* Random instance document conforming to a schema: repeatable elements
   occur 1-3 times; leaves carry a small text vocabulary so that value
   predicates sometimes hit. *)
let random_doc prng schema =
  let vocab = [| "a"; "b"; "c"; "d"; "e" |] in
  let rec instantiate e =
    let kids =
      List.concat_map
        (fun c ->
          let copies = if Schema.repeatable schema c then 1 + Uxsm_util.Prng.int prng 3 else 1 in
          List.init copies (fun _ -> instantiate c))
        (Schema.children schema e)
    in
    let children =
      if kids = [] then [ Uxsm_xml.Tree.text (Uxsm_util.Prng.pick prng vocab) ] else kids
    in
    Uxsm_xml.Tree.element (Schema.label schema e) children
  in
  Uxsm_xml.Doc.of_tree (instantiate (Schema.root schema))

(* Random twig pattern guaranteed resolvable against [schema]: grown from a
   random element, with structurally consistent Child/Descendant branches
   and occasional value predicates on leaves. With [anchored], every node
   is anchored, as a query rewritten through a mapping is: to its schema
   element's path, except that about one node in eight gets a path no
   document node has, or another element's path, with that element's label
   (as a rewrite through a wrong correspondence would have) or with its
   own. The other element is often the pattern parent's, whose instances
   sit right beside the ends of the parent's candidate interval. The
   unanchored variant draws exactly what it drew before anchors existed. *)
let random_pattern ?(anchored = false) prng schema =
  let module P = Uxsm_twig.Pattern in
  let all = Array.of_list (Schema.elements schema) in
  let other up =
    match up with
    | Some p when Uxsm_util.Prng.bool prng -> p
    | _ -> Uxsm_util.Prng.pick prng all
  in
  let anchor_of e up label =
    let path = Schema.path_string schema in
    if not anchored then (label, None)
    else
      match Uxsm_util.Prng.int prng 24 with
      | 0 -> (label, Some (path e ^ ".absent"))
      | 1 ->
        let o = other up in
        ((if String.equal label P.wildcard then label else Schema.label schema o), Some (path o))
      | 2 -> (label, Some (path (other up)))
      | _ -> (label, Some (path e))
  in
  let vocab = [| "a"; "b"; "c"; "d"; "e" |] in
  let rec grow ?up e depth : P.node =
    let descendants = List.tl (Schema.subtree_elements schema e) in
    let kids = Schema.children schema e in
    let n_branches =
      if depth >= 3 || descendants = [] then 0 else Uxsm_util.Prng.int prng 3
    in
    let branch _ =
      if kids <> [] && Uxsm_util.Prng.bool prng then begin
        let c = Uxsm_util.Prng.pick prng (Array.of_list kids) in
        (P.Child, grow ~up:e c (depth + 1))
      end
      else begin
        let d = Uxsm_util.Prng.pick prng (Array.of_list descendants) in
        (P.Descendant, grow ~up:e d (depth + 1))
      end
    in
    let branches = List.init n_branches branch in
    let value =
      if branches = [] && Schema.is_leaf schema e && Uxsm_util.Prng.int prng 4 = 0 then
        Some (Uxsm_util.Prng.pick prng vocab)
      else None
    in
    let label =
      (* occasional wildcard nodes exercise the engines' generic pools *)
      if Uxsm_util.Prng.int prng 8 = 0 then P.wildcard else Schema.label schema e
    in
    let label, anchor = anchor_of e up label in
    match branches with
    | [] -> P.node ?anchor ?value label
    | [ b ] -> P.node ?anchor ?value ~next:b label
    | b :: rest -> P.node ?anchor ?value ~preds:rest ~next:b label
  in
  let e = Uxsm_util.Prng.pick prng all in
  let axis = if e = Schema.root schema then P.Child else P.Descendant in
  { P.axis; root = grow e 0 }

module Coma = Uxsm_matcher.Coma

type t = {
  id : string;
  source : Standards.style;
  target : Standards.style;
  strategy : Coma.strategy;
  capacity : int;
  paper_o_ratio : float;
}

let all =
  [
    { id = "D1"; source = Standards.excel; target = Standards.noris; strategy = Coma.Fragment; capacity = 30; paper_o_ratio = 0.79 };
    { id = "D2"; source = Standards.excel; target = Standards.paragon; strategy = Coma.Context; capacity = 47; paper_o_ratio = 0.63 };
    { id = "D3"; source = Standards.excel; target = Standards.paragon; strategy = Coma.Fragment; capacity = 31; paper_o_ratio = 0.57 };
    { id = "D4"; source = Standards.noris; target = Standards.paragon; strategy = Coma.Context; capacity = 41; paper_o_ratio = 0.64 };
    { id = "D5"; source = Standards.noris; target = Standards.paragon; strategy = Coma.Fragment; capacity = 21; paper_o_ratio = 0.53 };
    { id = "D6"; source = Standards.opentrans; target = Standards.apertum; strategy = Coma.Context; capacity = 77; paper_o_ratio = 0.87 };
    { id = "D7"; source = Standards.xcbl; target = Standards.apertum; strategy = Coma.Context; capacity = 226; paper_o_ratio = 0.84 };
    { id = "D8"; source = Standards.xcbl; target = Standards.cidx; strategy = Coma.Context; capacity = 127; paper_o_ratio = 0.82 };
    { id = "D9"; source = Standards.xcbl; target = Standards.opentrans; strategy = Coma.Context; capacity = 619; paper_o_ratio = 0.91 };
    { id = "D10"; source = Standards.opentrans; target = Standards.xcbl; strategy = Coma.Context; capacity = 619; paper_o_ratio = 0.91 };
  ]

let find id = List.find_opt (fun d -> String.equal d.id id) all

let d7 =
  match find "D7" with
  | Some d -> d
  | None -> assert false

let default_seed = 42

let matching ?(seed = default_seed) ?(exec = Uxsm_exec.Executor.sequential) d =
  let source = Standards.generate ~seed d.source in
  let target = Standards.generate ~seed d.target in
  Coma.run_with_capacity ~exec ~strategy:d.strategy ~capacity:d.capacity ~source ~target ()

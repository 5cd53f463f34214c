(* Serialization of definition summaries and the cache-aware analysis:
   one stored record per callgraph SCC, holding the member definitions'
   settled global-test summaries ({!Escape.Report.def_summary}).

   Abstract values contain closures and cannot be persisted; what the
   reports actually consume — and therefore what the cache stores — is
   the summary data behind them.  A fully warm program is reported
   without constructing a solver at all (zero entry evaluations); a
   partial hit builds one solver and summarizes only the missing SCCs'
   members, whose solve demand-evaluates just their cones. *)

module J = Nml.Json
module Report = Escape.Report
module Besc = Escape.Besc

let arg_to_json (a : Report.arg_summary) =
  J.Obj
    [
      ("arg", J.int a.Report.s_arg);
      ("spines", J.int a.Report.s_spines);
      ("esc", J.Str (Besc.to_string a.Report.s_esc));
      ( "components",
        J.Arr
          (List.map
             (fun (path, esc) -> J.Arr [ J.Str path; J.Str (Besc.to_string esc) ])
             a.Report.s_components) );
    ]

let def_to_json (s : Report.def_summary) =
  let sharing =
    match s.Report.s_sharing with
    | None -> []
    | Some (top, spines) -> [ ("sharing", J.Arr [ J.int top; J.int spines ]) ]
  in
  J.Obj
    ([
       ("name", J.Str s.Report.s_name);
       ("inst", J.Str s.Report.s_inst);
       ("args", J.Arr (List.map arg_to_json s.Report.s_args));
     ]
    @ sharing)

let esc j =
  let s = J.str j in
  match Besc.of_string s with Some e -> e | None -> failwith ("bad escape value " ^ s)

let arg_of_json j =
  {
    Report.s_arg = J.num (J.get "arg" j);
    s_spines = J.num (J.get "spines" j);
    s_esc = esc (J.get "esc" j);
    s_components =
      List.map
        (function J.Arr [ p; e ] -> (J.str p, esc e) | _ -> failwith "bad component")
        (J.arr (J.get "components" j));
  }

let def_of_json j =
  {
    Report.s_name = J.str (J.get "name" j);
    s_inst = J.str (J.get "inst" j);
    s_args = List.map arg_of_json (J.arr (J.get "args" j));
    s_sharing =
      (match J.member "sharing" j with
      | None -> None
      | Some (J.Arr [ a; b ]) -> Some (J.num a, J.num b)
      | Some _ -> failwith "bad sharing");
  }

(* ---- cache-aware analysis -------------------------------------------------- *)

(* The escape analysis as an [Engine] instance; the per-SCC loop, lazy
   session construction, record stamping and self-healing all live
   there, shared with every Spec in [Analyses.Registry]. *)
let engine_spec : Report.def_summary Engine.spec =
  {
    Engine.analysis = "escape";
    def_name = (fun d -> d.Report.s_name);
    to_json = def_to_json;
    of_json = def_of_json;
    session =
      (fun prog ->
        let t = Escape.Fixpoint.make prog in
        {
          Engine.summarize = Report.summarize t;
          evaluations = (fun () -> Escape.Fixpoint.evaluations t);
        });
  }

type outcome = Report.def_summary Engine.outcome

let analyze = Engine.analyze engine_spec

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

exception Decode of string

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

let get field j =
  match J.member field j with
  | Some v -> v
  | None -> raise (Decode ("missing field " ^ field))

let str = function J.Str s -> s | _ -> raise (Decode "expected a string")
let num = function J.Num f -> int_of_float f | _ -> raise (Decode "expected a number")
let arr = function J.Arr xs -> xs | _ -> raise (Decode "expected an array")

let esc j =
  let s = str j in
  match Besc.of_string s with Some e -> e | None -> raise (Decode ("bad escape value " ^ s))

let arg_of_json j =
  {
    Report.s_arg = num (get "arg" j);
    s_spines = num (get "spines" j);
    s_esc = esc (get "esc" j);
    s_components =
      List.map
        (function
          | J.Arr [ p; e ] -> (str p, esc e)
          | _ -> raise (Decode "bad component"))
        (arr (get "components" j));
  }

let def_of_json j =
  {
    Report.s_name = str (get "name" j);
    s_inst = str (get "inst" j);
    s_args = List.map arg_of_json (arr (get "args" j));
    s_sharing =
      (match J.member "sharing" j with
      | None -> None
      | Some (J.Arr [ a; b ]) -> Some (num a, num b)
      | Some _ -> raise (Decode "bad sharing"));
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

let record_to_json ~key summaries = Engine.record_to_json engine_spec ~key summaries
let record_of_json ~key ~members j = Engine.record_of_json engine_spec ~key ~members j

type outcome = Report.def_summary Engine.outcome

let analyze = Engine.analyze engine_spec

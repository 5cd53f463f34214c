(* The analysis registry: every Spec the framework can run, addressable
   by name from the CLI ([nmlc analyze --analysis NAME]), the batch
   driver and the serve daemon.  Each entry runs through
   {!Cache.Engine}, so every analysis inherits the per-SCC persistent
   cache under its own key namespace — a warm rerun of any analysis
   performs zero solver evaluations. *)

module J = Nml.Json
module Engine = Cache.Engine
module Usage = Framework.Usage
module Spinelive = Framework.Spinelive
module Alias = Framework.Alias
module Verdict = Framework.Verdict

type entry = {
  name : string;  (* canonical registry / cache-namespace name *)
  aliases : string list;
  domain : string;  (* one-line abstract-domain description *)
  doc : string;  (* one-line "what question does it answer" *)
  run : ?store:Cache.Store.t -> path:string -> Nml.Infer.program -> Cache.Batch.result;
}

let render pp summaries =
  Format.asprintf "@[<v 0>%a@]@."
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,@,") pp)
    summaries

(* ---- the flag analyses: one codec over each verdict table ------------------- *)

(* The cache spec of a flag analysis: a record stores each definition's
   per-parameter verdicts by their names in [verdicts]; [extra] appends
   fields derived from the report. *)
let flag_spec ~analysis ?(extra = fun _ -> []) verdicts session :
    _ Verdict.def_report Engine.spec =
  let arg_of_json = function
    | J.Arr [ i; v ] ->
        {
          Verdict.a_index = J.num i;
          a_verdict =
            (match Verdict.of_name verdicts (J.str v) with
            | Some v -> v
            | None -> failwith ("bad " ^ analysis ^ " verdict"));
        }
    | _ -> failwith ("bad " ^ analysis ^ " arg")
  in
  {
    Engine.analysis;
    def_name = (fun r -> r.Verdict.r_name);
    to_json =
      (fun r ->
        J.Obj
          ([
             ("name", J.Str r.Verdict.r_name);
             ("inst", J.Str r.Verdict.r_ty);
             ( "args",
               J.Arr
                 (List.map
                    (fun a ->
                      J.Arr
                        [
                          J.int a.Verdict.a_index;
                          J.Str (Verdict.name verdicts a.Verdict.a_verdict);
                        ])
                    r.Verdict.r_args) );
           ]
          @ extra r));
    of_json =
      (fun j ->
        {
          Verdict.r_name = J.str (J.get "name" j);
          r_ty = J.str (J.get "inst" j);
          r_args = List.map arg_of_json (J.arr (J.get "args" j));
        });
    session;
  }

let usage_spec =
  flag_spec ~analysis:"usage" Usage.verdicts (fun prog ->
      let t = Usage.Solver.make prog in
      { Engine.summarize = Usage.report t; evaluations = (fun () -> Usage.Solver.evaluations t) })

let spinelive_spec =
  flag_spec ~analysis:"spine-liveness" Spinelive.verdicts (fun prog ->
      let t = Spinelive.Solver.make prog in
      {
        Engine.summarize = Spinelive.report t;
        evaluations = (fun () -> Spinelive.Solver.evaluations t);
      })

(* sharing also stores its may-alias pairs, derived from the verdicts *)
let alias_spec =
  flag_spec ~analysis:"sharing" Alias.verdicts
    ~extra:(fun r ->
      [
        ( "pairs",
          J.Arr
            (List.map
               (fun (i, j) -> J.Arr [ J.int i; J.int j ])
               (Alias.may_alias_pairs r.Verdict.r_args)) );
      ])
    (fun prog ->
      let t = Alias.Solver.make prog in
      { Engine.summarize = Alias.report t; evaluations = (fun () -> Alias.Solver.evaluations t) })

let spec_entry ~name ~aliases ~domain ~doc spec pp =
  let run ?store ~path prog =
    let o = Engine.analyze spec ?store prog in
    Cache.Batch.result ~defs:(List.length o.Engine.summaries)
      ~evaluations:o.Engine.evaluations ~scc_hits:o.Engine.scc_hits
      ~scc_misses:o.Engine.scc_misses path (render pp o.Engine.summaries)
  in
  { name; aliases; domain; doc; run }

(* ---- escape × usage reduced product ----------------------------------------- *)

let product_def_to_json (r : Product.def_report) =
  J.Obj
    [
      ("name", J.Str r.Product.r_name);
      ("inst", J.Str r.Product.r_ty);
      ( "args",
        J.Arr
          (List.map
             (fun (a : Product.arg_report) ->
               J.Obj
                 [
                   ("arg", J.int a.Product.a_index);
                   ("usage", J.Str (Usage.verdict_name a.Product.a_usage));
                   ("esc", J.Str (Escape.Besc.to_string a.Product.a_esc));
                   ("spines", J.int a.Product.a_spines);
                   ("verdict", J.Str (Product.verdict_name a.Product.a_verdict));
                 ])
             r.Product.r_args) );
    ]

let product_def_of_json j =
  let req of_name s =
    match of_name s with Some v -> v | None -> failwith ("bad verdict " ^ s)
  in
  {
    Product.r_name = J.str (J.get "name" j);
    r_ty = J.str (J.get "inst" j);
    r_args =
      List.map
        (fun a ->
          {
            Product.a_index = J.num (J.get "arg" a);
            a_usage = req Usage.verdict_of_name (J.str (J.get "usage" a));
            a_esc = req Escape.Besc.of_string (J.str (J.get "esc" a));
            a_spines = J.num (J.get "spines" a);
            a_verdict = req Product.verdict_of_name (J.str (J.get "verdict" a));
          })
        (J.arr (J.get "args" j));
  }

let product_spec : Product.def_report Engine.spec =
  {
    Engine.analysis = "escape-x-usage";
    def_name = (fun r -> r.Product.r_name);
    to_json = product_def_to_json;
    of_json = product_def_of_json;
    session =
      (fun prog ->
        let t = Product.Solver.make prog in
        {
          Engine.summarize = Product.report t;
          evaluations = (fun () -> Product.Solver.evaluations t);
        });
  }

(* ---- the registry ----------------------------------------------------------- *)

let all =
  [
    {
      name = "escape";
      aliases = [];
      domain = "B_e chains <e,s> over list spines (Park-Goldberg)";
      doc = "which bottom spines of each argument may escape into the result";
      run = Cache.Batch.of_program;
    };
    spec_entry ~name:"usage" ~aliases:[ "strictness" ] ~domain:"dep x use bits per argument"
      ~doc:"is each argument inspected, retained, both, or neither" usage_spec
      Usage.pp_def_report;
    spec_entry ~name:"spine-liveness" ~aliases:[ "liveness" ]
      ~domain:"dep x head x tail bits per argument (Karkare-style)"
      ~doc:"which part of each argument's heap structure the callee needs" spinelive_spec
      Spinelive.pp_def_report;
    spec_entry ~name:"escape-x-usage" ~aliases:[ "product" ]
      ~domain:"reduced product of escape and usage"
      ~doc:"storage verdicts per argument: dead / scratch / spine-scratch / retained"
      product_spec Product.pp_def_report;
    spec_entry ~name:"sharing" ~aliases:[ "alias" ]
      ~domain:"dep x spine sharing pairs per argument (Hill-Spoto-style)"
      ~doc:"may the result share cells (or its spine) with each argument" alias_spec
      Alias.pp_def_report;
  ]

let names = List.map (fun e -> e.name) all

let find name =
  List.find_opt (fun e -> String.equal e.name name || List.mem name e.aliases) all

let job e =
  Cache.Batch.job (fun ?store ~path src ->
      e.run ?store ~path (Nml.Front.of_string ~file:path src))

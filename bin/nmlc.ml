(* nmlc — driver for the nml escape-analysis toolchain.

   Subcommands:
     parse      parse and pretty-print a program
     typecheck  print the inferred type scheme of every definition
     eval       run the reference interpreter
     analyze    global escape + sharing report (optionally the
                enumeration engine, or a local test on the main call)
     batch      analyze or lint many files on a pool of domains through
                the persistent summary cache
     optimize   print the optimized program and what was applied
     run        execute on the storage simulator and print statistics,
                optionally comparing baseline and optimized runs
     check      differential soundness harness: reference interpreter vs
                machine (baseline / optimized / optimized under fault
                injection) on a program corpus and random programs
     vet        independent annotation verifier: re-derive the proof
                obligation behind every storage annotation of the
                optimized program, with source-located diagnostics and
                seeded mutation testing of the verifier itself
     lint       escape-informed lint rules (missed reuse, heap-doomed
                results, Theorem-1 self-audit, dead spines, unused
                bindings) with inline suppressions and SARIF output

   Exit codes: 0 clean, 1 findings / divergence / user or usage error,
   2 storage exhausted (Out_of_memory), 3 step budget exhausted
   (Out_of_fuel), 124 internal error. *)

open Cmdliner

(* a diagnostic-producing stage found something: details are already
   printed, only the exit code is left to set *)
exception Findings

(* test hook for the internal-error path: any command aborts before
   doing work when NMLC_INTERNAL_ERROR is set *)
exception Internal_error of string

let () =
  Printexc.register_printer (function
    | Internal_error msg -> Some msg
    | _ -> None)

(* The toolchain exception regime: every subcommand body runs under it,
   and the exit code of each failure comes from the pipeline's one table
   (0 clean, 1 findings or user error, 2 out of memory, 3 out of fuel,
   124 internal). *)
let handle ?format f =
  match
    if Sys.getenv_opt "NMLC_INTERNAL_ERROR" <> None then
      raise (Internal_error "forced by NMLC_INTERNAL_ERROR");
    f ()
  with
  | () -> 0
  | exception Findings -> 1
  | exception e ->
      let code, text = Pipeline.failure ?format e in
      prerr_string text;
      code

(* ---- common arguments and plumbing ----------------------------------------- *)

let with_input ?format input k =
  handle ?format (fun () ->
      match input with
      | Some f, None -> k f (Nml.Front.read f)
      | None, Some src -> k "<command line>" src
      | Some _, Some _ -> failwith "give either a file or -e, not both"
      | None, None -> failwith "give a program file or -e SRC")

(* the front stage: every command past [parse] types its input first *)
let with_typed ?format input k =
  with_input ?format input (fun file src -> k (Nml.Front.of_string ~file src))

let flag names doc = Arg.value (Arg.flag (Arg.info names ~doc))
let opt c default names docv doc = Arg.value (Arg.opt c default (Arg.info names ~docv ~doc))
let opt_some c names docv doc = opt (Arg.some c) None names docv doc

let format_arg ~doc =
  opt
    (Arg.enum
       [
         ("human", Nml.Diagnostic.Human);
         ("json", Nml.Diagnostic.Json);
         ("sarif", Nml.Diagnostic.Sarif);
       ])
    Nml.Diagnostic.Human [ "format" ] "FORMAT" doc

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Program file.")

let inline_arg = opt_some Arg.string [ "e"; "expr" ] "SRC" "Program given inline."
let source = Term.(const (fun f i -> (f, i)) $ file_arg $ inline_arg)
let fuel_arg doc = opt_some Arg.int [ "fuel" ] "N" doc
let jobs_arg doc = opt_some Arg.int [ "j"; "jobs" ] "N" doc
let jobs = function Some n -> max 1 n | None -> Domain.recommended_domain_count ()

let cache_arg =
  opt Arg.string ".nmlc-cache" [ "cache" ] "DIR" "Persistent summary cache directory."

(* vet and lint: the diagnostics in the requested format *)
let print_findings ?rules format ~schema counts ds line =
  let module J = Nml.Json in
  print_string
    (match format with
    | Nml.Diagnostic.Human -> Nml.Diagnostic.report ds line
    | Nml.Diagnostic.Json ->
        J.to_string
          (J.Obj
             ((("schema", J.Str schema) :: List.map (fun (k, v) -> (k, J.int v)) counts)
             @ [ ("diagnostics", J.Arr (List.map Nml.Diagnostic.to_json ds)) ]))
    | Nml.Diagnostic.Sarif -> J.to_string (Nml.Diagnostic.to_sarif ?rules ds))

(* ---- commands -------------------------------------------------------------- *)

let parse_cmd =
  let run input =
    with_input input (fun file src ->
        Format.printf "%a@." Nml.Surface.pp (Nml.Surface.of_string ~file src))
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse and pretty-print a program") Term.(const run $ source)

let typecheck_cmd =
  let run input =
    with_typed input (fun prog ->
        List.iter
          (fun (name, s) -> Format.printf "%s : %a@." name Nml.Infer.pp_scheme s)
          prog.Nml.Infer.schemes;
        Format.printf "main : %a@." Nml.Ty.pp (Nml.Infer.main_ground prog).Nml.Tast.ty)
  in
  Cmd.v (Cmd.info "typecheck" ~doc:"Infer and print definition type schemes")
    Term.(const run $ source)

let eval_cmd =
  let run input fuel =
    with_typed input (fun prog ->
        Format.printf "%a@." Nml.Eval.pp_value (Nml.Eval.run ?fuel prog.Nml.Infer.surface))
  in
  Cmd.v (Cmd.info "eval" ~doc:"Run the reference interpreter")
    Term.(const run $ source $ fuel_arg "Bound the number of evaluation steps.")

let stats_json stats =
  let module J = Nml.Json in
  let module Fix = Escape.Fixpoint in
  [
    ("schema", J.Str "nmlc/solver-stats-v1");
    ("engine", J.Str "worklist");
    ("passes", J.int stats.Fix.stats_passes);
    ("iterations", J.int stats.Fix.stats_iterations);
    ("entries", J.int stats.Fix.stats_entries);
    ("evaluations", J.int stats.Fix.stats_evaluations);
    ("sccs", J.int stats.Fix.stats_sccs);
    ("largest_scc", J.int stats.Fix.stats_largest_scc);
    ("cache_hits", J.int stats.Fix.stats_cache_hits);
    ("cache_misses", J.int stats.Fix.stats_cache_misses);
    ("cache_invalidated", J.int stats.Fix.stats_cache_invalidated);
    ("d_bound", J.int stats.Fix.stats_dbound);
    ("capped", J.Bool stats.Fix.stats_capped);
  ]

let list_analyses () =
  Format.printf "@[<v 0>registered analyses:@,";
  List.iter
    (fun (e : Analyses.Registry.entry) ->
      let aliases =
        match e.aliases with
        | [] -> ""
        | a -> Printf.sprintf " (alias: %s)" (String.concat ", " a)
      in
      Format.printf "  %-16s %s%s@,  %-16s domain: %s@,  %-16s cache: %s/%s@," e.name e.doc
        aliases "" e.domain "" Cache.Skey.schema_version e.name)
    Analyses.Registry.all;
  Format.printf "@]@?"

let analyze_escape prog func enumerate local show_stats json =
  let module J = Nml.Json in
  if json then begin
    if enumerate then failwith "--json reports the fixpoint solver, not --enumerate";
    let t = Escape.Fixpoint.make prog in
    (* drive the same queries the report makes, then emit the counters *)
    ignore (Format.asprintf "%a" Escape.Report.program t);
    let heap =
      match Pipeline.storage_row prog with
      | Ok row -> J.Obj (List.map (fun (k, v) -> (k, J.int v)) row)
      | Error reason -> J.Obj [ ("skipped", J.Str reason) ]
    in
    print_string
      (J.to_string (J.Obj (stats_json (Escape.Fixpoint.stats t) @ [ ("heap", heap) ])))
  end
  else if enumerate then begin
    try
      let e = Escape.Enumerate.solve prog in
      List.iter
        (fun (name, _) ->
          let inst = Nml.Infer.simplest_instance prog name in
          Format.printf "%s : %s@." name (Nml.Ty.to_string inst);
          for i = 1 to Nml.Ty.arity inst do
            Format.printf "  G(%s, %d) = %s@." name i
              (Escape.Besc.to_string (Escape.Enumerate.global e name ~arg:i))
          done)
        prog.Nml.Infer.surface.Nml.Surface.defs;
      Format.printf "(%d table entries, %d rounds)@." (Escape.Enumerate.entries e)
        (Escape.Enumerate.iterations e)
    with Escape.Enumerate.Higher_order msg ->
      Printf.eprintf "enumeration engine: program is not first order: %s\n" msg;
      raise Findings
  end
  else begin
    let t = Escape.Fixpoint.make prog in
    (match func with
    | Some f -> Format.printf "%a@." (fun ppf () -> Escape.Report.definition ppf t f) ()
    | None -> Format.printf "%a@." Escape.Report.program t);
    if local then begin
      let rec split args = function
        | Nml.Ast.App (_, f, a) -> split (a :: args) f
        | head -> (head, args)
      in
      match split [] prog.Nml.Infer.surface.Nml.Surface.main with
      | _, [] -> failwith "--local: the main expression is not a call"
      | Nml.Ast.Var (_, f), args ->
          Format.printf "%a@." (fun ppf () -> Escape.Report.call ppf t f args) ()
      | _ -> failwith "--local: the main expression is not a call of a definition"
    end;
    (* last, so a failing stage above never leaves a misleading
       half-report with statistics attached *)
    if show_stats then begin
      Format.printf "-- solver --@.%a@." Escape.Fixpoint.pp_stats (Escape.Fixpoint.stats t);
      Format.printf "-- storage (generational heap) --@.";
      match Pipeline.storage_row prog with
      | Ok row ->
          Format.printf "%a@."
            (Format.pp_print_list ~pp_sep:Format.pp_print_newline (fun ppf (k, v) ->
                 Format.fprintf ppf "%-18s %d" k v))
            row
      | Error reason -> Format.printf "skipped (%s)@." reason
    end
  end

let analyze_cmd =
  let run input func enumerate local show_stats json analysis listing =
    if listing then begin
      list_analyses ();
      0
    end
    else
      with_typed input (fun prog ->
          if String.equal analysis "escape" then
            analyze_escape prog func enumerate local show_stats json
          else
            let e =
              match Analyses.Registry.find analysis with
              | Some e -> e
              | None ->
                  failwith
                    (Printf.sprintf "unknown analysis %s (try --list-analyses)" analysis)
            in
            if enumerate || local || json || func <> None then
              failwith "--enumerate/--local/--json/-f apply to the escape analysis only";
            let o = e.Analyses.Registry.run prog in
            print_string o.Analyses.Registry.output;
            if show_stats then
              Format.printf
                "-- solver --@.analysis            %s@.definitions         \
                 %d@.entry evaluations   %d@."
                e.Analyses.Registry.name o.Analyses.Registry.defs
                o.Analyses.Registry.evaluations)
  in
  let func = opt_some Arg.string [ "f"; "fun" ] "NAME" "Analyze a single definition." in
  let enumerate =
    flag [ "enumerate" ]
      "Use the full-enumeration first-order engine instead of the probe engine."
  in
  let local = flag [ "local" ] "Also run the local escape test on the main call." in
  let show_stats =
    flag [ "stats" ]
      "Print solver statistics (passes, entry evaluations, SCCs, application cache \
       behaviour) after the report."
  in
  let json =
    flag [ "json" ]
      "Emit the solver statistics as a JSON document instead of the report (not \
       available with --enumerate)."
  in
  let analysis =
    opt Arg.string "escape" [ "analysis" ] "NAME"
      "Which registered analysis to run: $(b,escape) (default), $(b,usage) (alias \
       $(b,strictness)), $(b,spine-liveness), $(b,escape-x-usage) (alias \
       $(b,product)), or $(b,sharing) (alias $(b,alias)).  See $(b,--list-analyses)."
  in
  let listing =
    flag [ "list-analyses" ]
      "List the registered analyses (name, question, abstract domain) and exit."
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Escape analysis report (global tests and sharing)")
    Term.(
      const run $ source $ func $ enumerate $ local $ show_stats $ json $ analysis
      $ listing)

let batch_cmd =
  let expand path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".nml")
      |> List.sort String.compare
      |> List.map (Filename.concat path)
    else [ path ]
  in
  let analysis_job lint analysis =
    if lint then begin
      if not (String.equal analysis "escape") then
        failwith "--lint runs the lint rules; it does not take --analysis";
      Some (fun ~store path -> Lint.Batch.analyze_file ~store path)
    end
    else
      match Analyses.Registry.find analysis with
      | None ->
          failwith
            (Printf.sprintf "unknown analysis %s (try nmlc analyze --list-analyses)" analysis)
      | Some e when String.equal e.Analyses.Registry.name "escape" -> None
      | Some e -> Some (fun ~store path -> Analyses.Registry.batch_job e ~store path)
  in
  let print_results ~lint format results =
    let module B = Cache.Batch in
    let module J = Nml.Json in
    let total f = List.fold_left (fun acc r -> acc + f r) 0 results in
    let count p = List.length (List.filter p results) in
    let ok = count (fun r -> r.B.code = 0) in
    let errors = List.length results - ok in
    let evals = total (fun r -> r.B.evaluations) in
    let hits = total (fun r -> r.B.scc_hits) in
    let misses = total (fun r -> r.B.scc_misses) in
    let findings = total (fun r -> r.B.findings) in
    let counts findings evals hits misses =
      (if lint then [ ("findings", J.int findings) ] else [])
      @ [ ("evaluations", J.int evals); ("scc_hits", J.int hits); ("scc_misses", J.int misses) ]
    in
    match format with
    | `Human ->
        List.iter
          (fun r ->
            Format.printf "== %s ==@." r.B.path;
            print_string r.B.output;
            (* keep each file's stderr next to its header in captured output *)
            flush stdout;
            prerr_string r.B.errors;
            flush stderr)
          results;
        if lint then
          Format.printf
            "lint: %d file(s), %d clean, %d finding(s); %d entry evaluation(s), %d scc \
             hit(s), %d scc miss(es)@."
            (List.length results) ok findings evals hits misses
        else
          Format.printf
            "batch: %d file(s), %d ok, %d error(s); %d entry evaluation(s), %d scc \
             hit(s), %d scc miss(es)@."
            (List.length results) ok errors evals hits misses;
        let failed = List.filter (fun r -> r.B.code = 124) results in
        if failed <> [] then
          Format.printf "failed: %s@."
            (String.concat ", " (List.map (fun r -> r.B.path) failed));
        let skipped = count (fun r -> r.B.code = 130) in
        if skipped > 0 then
          Format.printf "%s: interrupted, %d file(s) not analyzed@."
            (if lint then "lint" else "batch")
            skipped
    | `Json ->
        let file_json r =
          J.Obj
            ([ ("path", J.Str r.B.path); ("code", J.int r.B.code); ("defs", J.int r.B.defs) ]
            @ counts r.B.findings r.B.evaluations r.B.scc_hits r.B.scc_misses
            @ if r.B.errors = "" then [] else [ ("errors", J.Str r.B.errors) ])
        in
        print_string
          (J.to_string
             (J.Obj
                ([
                   ("schema", J.Str "nmlc/batch-v1");
                   ("files", J.Arr (List.map file_json results));
                 ]
                @ counts findings evals hits misses
                @ [ ("errors", J.int errors) ])))
  in
  let run paths jobs_n cache_dir no_cache lint format analysis =
    let rc = ref 0 in
    let code =
      handle (fun () ->
          let files = List.concat_map expand paths in
          if files = [] then failwith "no .nml program files to analyze";
          let store = if no_cache then None else Some (Cache.Store.create cache_dir) in
          (* janitor: staging files a crashed earlier run left behind *)
          Option.iter (fun s -> ignore (Cache.Store.cleanup_tmp s)) store;
          let analyze = analysis_job lint analysis in
          (* SIGINT/SIGTERM drain the pool instead of killing it mid-write:
             in-flight files finish (and their summaries commit through the
             atomic-rename path), unstarted files come back as code 130 *)
          let interrupted = Atomic.make false in
          let previous =
            List.map
              (fun s ->
                (s, Sys.signal s (Sys.Signal_handle (fun _ -> Atomic.set interrupted true))))
              [ Sys.sigint; Sys.sigterm ]
          in
          let results =
            Fun.protect
              ~finally:(fun () -> List.iter (fun (s, b) -> Sys.set_signal s b) previous)
              (fun () ->
                Cache.Batch.run ?analyze ?store
                  ~stop:(fun () -> Atomic.get interrupted)
                  ~jobs:(jobs jobs_n) files)
          in
          print_results ~lint format results;
          rc := Cache.Batch.exit_code results)
    in
    if code <> 0 then code else !rc
  in
  let paths =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"PATH"
          ~doc:"Program files, or directories scanned for $(b,*.nml) files.")
  in
  let no_cache =
    flag [ "no-cache" ] "Analyze cold, without reading or writing the cache."
  in
  let lint =
    flag [ "lint" ]
      "Run the lint rules instead of the escape-summary report; per-SCC findings are \
       persisted and invalidated through the same cache."
  in
  let format =
    opt
      (Arg.enum [ ("human", `Human); ("json", `Json) ])
      `Human [ "format" ] "FORMAT"
      "Report rendering: $(b,human) (default, per-file reports and a summary line) or \
       $(b,json) (one machine-readable document, no timing data)."
  in
  let analysis =
    opt Arg.string "escape" [ "analysis" ] "NAME"
      "Which registered analysis to run per file (default $(b,escape)); see $(b,nmlc \
       analyze --list-analyses)."
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Analyze or lint many programs in parallel through the persistent summary \
             cache")
    Term.(
      const run $ paths
      $ jobs_arg
          "Number of analysis domains (default: the machine's recommended domain \
           count)."
      $ cache_arg $ no_cache $ lint $ format $ analysis)

let options_term =
  let mk m r a s b p =
    {
      Optimize.Transform.monomorphize = not m;
      reuse = not r;
      alias_reuse = (not r) && not a;
      stack = not s;
      block = not b;
      pretenure = p;
    }
  in
  Term.(
    const mk
    $ flag [ "no-mono" ] "Do not monomorphize first."
    $ flag [ "no-reuse" ] "Disable in-place reuse."
    $ flag [ "no-alias-reuse" ]
        "License in-place reuse from the Theorem-2 spine arithmetic only, without the \
         flow-sensitive sharing analysis."
    $ flag [ "no-stack" ] "Disable stack allocation."
    $ flag [ "no-block" ] "Disable block allocation."
    $ flag [ "pretenure" ]
        "Retarget escape-doomed cons sites (escaping literal spines, the result spine \
         of main) to tenured-at-birth allocation.  A hint for the generational heap; a \
         no-op under the legacy heap.")

let mono_cmd =
  let run input =
    with_typed input (fun prog ->
        let r = Nml.Mono.monomorphize prog in
        Format.printf "%a@.@." Nml.Surface.pp r.Nml.Mono.program;
        List.iter
          (fun (d, n, i) ->
            Format.printf "-- %s specialized as %s at %s@." d n (Nml.Ty.to_string i))
          r.Nml.Mono.instances)
  in
  Cmd.v
    (Cmd.info "mono" ~doc:"Monomorphize: one copy of each definition per used instance")
    Term.(const run $ source)

let optimize_cmd =
  let run input options =
    with_typed input (fun prog ->
        let r = Optimize.Transform.optimize ~options prog in
        Format.printf "%a@." Optimize.Transform.pp_report r;
        Format.printf "%a@." Runtime.Ir.pp r.Optimize.Transform.ir)
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Apply the storage optimizations and print the program")
    Term.(const run $ source $ options_term)

let run_cmd =
  let run input options optimized heap_size no_grow check compare fuel policy
      nursery no_regions no_pretenure backend =
    with_typed input (fun prog ->
        let config =
          Pipeline.heap ?nursery ~regions:(not no_regions) ~pretenure:(not no_pretenure)
            policy prog
        in
        let show label lowering =
          let r =
            Pipeline.execute ~heap_size ~grow:(not no_grow) ~check_arenas:check ?fuel
              ~config backend
              (Pipeline.lower ~heap:config lowering prog)
          in
          let v = match r.Pipeline.result with Ok v -> Lazy.force v | Error e -> raise e in
          Format.printf "%s result: %a@." label Nml.Eval.pp_value v;
          Format.printf "%a@." Runtime.Stats.pp r.Pipeline.stats
        in
        if compare || not optimized then show "baseline" Pipeline.Baseline;
        if compare || optimized then show "optimized" (Pipeline.Optimized options))
  in
  let optimized = flag [ "O"; "optimized" ] "Run the optimized program." in
  let heap = opt Arg.int 4096 [ "heap" ] "CELLS" "Cell store capacity." in
  let no_grow = flag [ "no-grow" ] "Fail instead of growing the store." in
  let check = flag [ "check-arenas" ] "Validate arena safety at every arena exit." in
  let compare = flag [ "compare" ] "Run both baseline and optimized, printing both." in
  let policy =
    opt
      (Arg.enum [ ("legacy", Pipeline.Legacy); ("generational", Pipeline.Generational) ])
      Pipeline.Legacy [ "policy" ] "POLICY"
      "Heap policy: $(b,legacy) (default, the original mark-sweep store) or \
       $(b,generational) (nursery + promotion, escape verdicts as pretenuring hints, \
       extra statistics rows)."
  in
  let nursery =
    opt_some Arg.int [ "nursery" ] "CELLS"
      "Nursery size for $(b,--policy generational) (default 1024): a minor collection \
       runs whenever this many young cells are live."
  in
  let no_regions =
    flag [ "no-regions" ]
      "Ignore arena annotations: region/block allocations fall back to ordinary heap \
       cells (and arena exits reclaim nothing)."
  in
  let no_pretenure =
    flag [ "no-pretenure" ]
      "Under $(b,--policy generational), do not tenure escape-doomed allocations at \
       birth; everything unannotated starts in the nursery."
  in
  let backend =
    opt
      (Arg.enum [ ("interp", Pipeline.Interp); ("vm", Pipeline.Vm) ])
      Pipeline.Interp [ "backend" ] "BACKEND"
      "Execution backend: $(b,interp) (default, the tree-walking storage simulator) or \
       $(b,vm) (the compact bytecode VM: ANF, flat closures, known calls, tail calls — \
       same heap policy, same statistics)."
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute on the storage simulator and print statistics")
    Term.(
      const run $ source $ options_term $ optimized $ heap $ no_grow $ check $ compare
      $ fuel_arg "Bound the number of machine steps." $ policy $ nursery $ no_regions
      $ no_pretenure $ backend)

let compile_cmd =
  let run input options optimized dump_anf dump_bytecode =
    with_typed input (fun prog ->
        let lowering = if optimized then Pipeline.Optimized options else Pipeline.Baseline in
        let ir = Pipeline.lower lowering prog in
        if dump_anf then begin
          let a = Backend.Anf.lower ir in
          (match Backend.Anf.verify a with
          | Ok () -> ()
          | Error m -> raise (Backend.Vm.Internal ("ANF verification failed: " ^ m)));
          Format.printf "%a@." Backend.Anf.pp a
        end;
        let code = Backend.Vm.compile ir in
        if dump_bytecode then Format.printf "%a@." Backend.Vm.pp_code code
        else if not dump_anf then
          Format.printf "%a@." Backend.Closure.pp_report (Backend.Vm.report code))
  in
  let optimized = flag [ "O"; "optimized" ] "Compile the optimized program." in
  let dump_anf =
    flag [ "dump-anf" ]
      "Print the A-normal form (verified: named intermediates, saturated primitives, \
       storage annotations as first-class forms)."
  in
  let dump_bytecode =
    flag [ "dump-bytecode" ]
      "Print the register bytecode after closure conversion, one function per lambda \
       nest, plus the conversion report."
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Lower through the bytecode middle-end (ANF, closure conversion) and \
             print the requested stage; with no dump flag, print the closure-\
             conversion report")
    Term.(const run $ source $ options_term $ optimized $ dump_anf $ dump_bytecode)

let fault_arg doc =
  opt (Arg.enum Check.Harness.faults) Check.Harness.No_fault [ "inject-fault" ] "KIND" doc

let check_cmd =
  let run files count seed heap fuel chaos fault =
    handle (fun () ->
        let cfg = { Check.Harness.heap; fuel; chaos; seed; fault } in
        (* the given files first: the corpus check stops at the first
           failure, which must not hide one of theirs *)
        let corpus =
          List.map (fun f -> (f, Nml.Front.read f)) files @ Check.Harness.builtin_corpus
        in
        let report kind = function
          | Ok { Check.Harness.checked; passed; skipped } ->
              Format.printf "%s: %d checked, %d ok, %d skipped@." kind checked passed
                skipped;
              true
          | Error c ->
              Format.printf "%a@." Check.Harness.pp_counterexample c;
              false
        in
        let ok = report "corpus" (Check.Harness.check_corpus cfg corpus) in
        let ok =
          (count <= 0 || report "random" (Check.Harness.check_random cfg ~count)) && ok
        in
        if not ok then failwith "soundness divergence (see counterexample above)";
        Format.printf "soundness: OK (differential oracle%s)@."
          (if chaos then ", chaos on" else ""))
  in
  let count = opt Arg.int 200 [ "count" ] "N" "Number of random programs to generate." in
  let seed =
    opt Arg.int 42 [ "seed" ] "S"
      "Seed for program generation and fault injection; equal seeds reproduce identical \
       runs, including any counterexample."
  in
  let heap =
    opt Arg.int Check.Harness.default.Check.Harness.heap [ "heap" ] "CELLS"
      "Capacity of the fixed-size chaos heaps."
  in
  let fuel =
    opt Arg.int Check.Harness.default.Check.Harness.fuel [ "fuel" ] "N"
      "Step budget per run (0 = unlimited)."
  in
  let chaos =
    flag [ "chaos" ]
      "Inject faults into the machine: forced collections at pseudo-random allocation \
       points and poisoning of freed cells."
  in
  let files =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"FILE" ~doc:"Additional program files to check.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Differential soundness harness: reference interpreter vs machine under \
             fault injection, on the builtin corpus and random programs")
    Term.(
      const run $ files $ count $ seed $ heap $ fuel $ chaos
      $ fault_arg
          "Deliberately break one optimizer verdict (arena: widen a stack/block verdict; \
           dcons: misuse a reuse verdict) to demonstrate that the harness detects it.  \
           Expected to exit nonzero.")

let vet_cmd =
  let run input options format mutate seed fault =
    with_typed ~format input (fun prog ->
        let source = prog.Nml.Infer.surface in
        let ir =
          match fault with
          | Check.Harness.No_fault -> Pipeline.lower (Pipeline.Optimized options) prog
          | f -> (
              match Check.Harness.sabotage f source with
              | Some ir -> ir
              | None -> failwith "the requested fault does not apply to this program")
        in
        match mutate with
        | Some count ->
            let o = Vet.Mutate.campaign ~seed ~count ~source ir in
            if o.Vet.Mutate.points = 0 then
              Format.printf "vet: no mutation points in this program@."
            else begin
              Format.printf
                "vet: %d mutation point(s), %d draw(s), %d detected, %d survived@."
                o.Vet.Mutate.points o.Vet.Mutate.draws o.Vet.Mutate.detected
                (o.Vet.Mutate.draws - o.Vet.Mutate.detected);
              List.iter (fun l -> Format.printf "survivor: %s@." l) o.Vet.Mutate.survivors;
              if o.Vet.Mutate.detected < o.Vet.Mutate.draws then raise Findings
            end
        | None ->
            (* the same advisory dead-spine hints a [run --policy
               generational] hands the heap, audited here instead of
               trusted *)
            let ds, { Vet.Verify.audited; findings } =
              Vet.Verify.audit ~hints:(Pipeline.hints prog) ~source ir
            in
            print_findings format ~schema:"nmlc/vet-v1"
              [ ("audited", audited); ("findings", findings) ]
              ds
              (Printf.sprintf "vet: %d annotation(s) audited, %d finding(s)" audited findings);
            if findings > 0 then raise Findings)
  in
  let format =
    format_arg ~doc:"Diagnostic rendering: $(b,human) (default), $(b,json) or $(b,sarif)."
  in
  let mutate =
    opt_some Arg.int [ "mutate" ] "N"
      "Mutation-test the verifier: draw N seeded mutations of the optimized program's \
       annotations and require every mutant to be detected."
  in
  let seed = opt Arg.int 0 [ "seed" ] "S" "Seed for --mutate; equal seeds reproduce runs." in
  Cmd.v
    (Cmd.info "vet"
       ~doc:"Independently re-verify the optimizer's storage annotations, reporting \
             violated proof obligations as source-located diagnostics")
    Term.(
      const run $ source $ options_term $ format $ mutate $ seed
      $ fault_arg
          "Vet a deliberately broken annotation (arena: widen a stack/block verdict; \
           dcons: misuse a reuse verdict) instead of the optimizer's output.  Expected \
           to exit nonzero.")

let lint_cmd =
  let parse_code flag c =
    let c = String.uppercase_ascii c in
    match Lint.Registry.find c with
    | Some _ -> c
    | None ->
        failwith
          (Printf.sprintf "%s: unknown rule %s (known rules: %s)" flag c
             (String.concat ", " (Lint.Registry.codes ())))
  in
  let parse_severity spec =
    match String.index_opt spec '=' with
    | None -> failwith (Printf.sprintf "--severity: expected CODE=LEVEL, got %s" spec)
    | Some i -> (
        let code = parse_code "--severity" (String.sub spec 0 i) in
        let level = String.sub spec (i + 1) (String.length spec - i - 1) in
        match Nml.Diagnostic.severity_of_name (String.lowercase_ascii level) with
        | Some s -> (code, s)
        | None ->
            failwith
              (Printf.sprintf "--severity: level must be error, warning or note, got %s"
                 level))
  in
  let run input format only disable severities fault =
    with_input ~format input (fun file src ->
        let config =
          {
            Lint.Registry.only = List.map (parse_code "--only") only;
            disabled = List.map (parse_code "--disable") disable;
            severities = List.map parse_severity severities;
          }
        in
        let o = Lint.Engine.run ~config ~fault ~file src in
        let n = List.length o.Lint.Engine.findings in
        print_findings ~rules:(Lint.Registry.sarif_rules ()) format ~schema:"nmlc/lint-v1"
          [ ("findings", n); ("suppressed", o.Lint.Engine.suppressed) ]
          o.Lint.Engine.findings
          (Printf.sprintf "lint: %d finding(s), %d suppressed" n o.Lint.Engine.suppressed);
        if n > 0 then raise Findings)
  in
  let format =
    format_arg
      ~doc:"Finding rendering: $(b,human) (default), $(b,json) or $(b,sarif) (SARIF \
            2.1.0, for code-scanning upload)."
  in
  let codes name docv doc = Arg.(value & opt_all string [] & info [ name ] ~docv ~doc) in
  let fault =
    opt
      (Arg.enum
         [
           ("none", Lint.Rule.No_fault);
           ("invariance", Lint.Rule.Corrupt_invariance);
           ("sharing", Lint.Rule.Corrupt_sharing);
         ])
      Lint.Rule.No_fault [ "inject-fault" ] "KIND"
      "Seed a lie an audit rule must catch: $(b,invariance) corrupts one escape verdict \
       before the Theorem-1 comparison so that $(b,LINT003) must fire (needs a \
       definition used at two or more instances); $(b,sharing) makes one reuse \
       candidate's sharing verdict spine-shared so that $(b,LINT008) must fire (needs a \
       reuse candidate).  The cache is bypassed.  Expected to exit nonzero."
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Escape-informed lint rules: missed reuse opportunities, heap-doomed \
             results, Theorem-1 instance-invariance self-audit, dead spines, unused \
             bindings and unreachable branches, with inline \
             $(b,(* nmlc-disable ... *)) suppressions")
    Term.(
      const run $ source $ format
      $ codes "only" "CODE" "Run only this rule (repeatable), e.g. $(b,--only LINT001)."
      $ codes "disable" "CODE" "Disable this rule (repeatable)."
      $ codes "severity" "CODE=LEVEL"
          "Override a rule's severity (repeatable), e.g. $(b,--severity LINT002=warning)."
      $ fault)

let serve_cmd =
  let client ~socket ~call ~file ~raw ~deadline_ms =
    let payload =
      match (raw, call) with
      | Some s, _ -> s
      | None, None -> failwith "give --call METHOD or --raw PAYLOAD with --connect"
      | None, Some m -> Serve.Client.request ?path:file ?deadline_ms m
    in
    let resp = Serve.Client.call ~socket payload in
    print_string resp;
    if Serve.Client.is_error resp then raise Findings
  in
  let run socket stdio jobs_n queue deadline_ms max_frame_kb cache_dir no_cache fault
      connect call file raw quiet =
    handle (fun () ->
        match connect with
        | Some sock -> client ~socket:sock ~call ~file ~raw ~deadline_ms
        | None ->
            let store =
              if no_cache then None
              else Some (Cache.Store.create ~memory:true ~write_back:true cache_dir)
            in
            Option.iter (fun s -> ignore (Cache.Store.cleanup_tmp s)) store;
            let transport =
              if stdio then Serve.Server.Stdio
              else Serve.Server.Socket (Option.value socket ~default:".nmlc.sock")
            in
            let cfg =
              {
                (Serve.Server.default_config transport) with
                Serve.Server.jobs = jobs jobs_n;
                queue_cap = max 1 queue;
                default_deadline_ms = Option.value deadline_ms ~default:30_000;
                max_frame = max 1 max_frame_kb * 1024;
                store;
                fault;
                quiet;
              }
            in
            let code = Serve.Server.run cfg in
            if code <> 0 then exit code)
  in
  let path_opt names docv doc = opt_some Arg.string names docv doc in
  let fault =
    opt
      (Arg.enum (List.map (fun f -> (Serve.Fault.to_string f, f)) Serve.Fault.all))
      Serve.Fault.None_ [ "inject-fault" ] "KIND"
      "Deliberately break one layer of the daemon ($(b,worker-crash), \
       $(b,slow-request), $(b,malformed-frame), $(b,cache-corrupt), $(b,oom)) to \
       exercise the supervision, deadline and self-heal machinery."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"A fault-tolerant analysis daemon: framed JSON-RPC over a Unix socket \
             or stdio, the summary cache held hot in memory, per-request deadlines, \
             bounded-queue load shedding, supervised worker domains and a clean \
             signal drain")
    Term.(
      const run
      $ path_opt [ "socket" ] "PATH" "Unix socket to listen on (default: $(b,.nmlc.sock))."
      $ flag [ "stdio" ] "Serve a single session on stdin/stdout instead of a socket."
      $ jobs_arg "Worker domains (default: the machine's recommended domain count)."
      $ opt Arg.int 64 [ "queue" ] "N"
          "Bounded request queue capacity; beyond it the oldest queued request is shed \
           with $(b,SRV005) and a retry-after hint."
      $ opt_some Arg.int [ "deadline-ms" ] "MS"
          "Server: default per-request deadline (default 30000; 0 disables). Client: the \
           $(b,deadline_ms) param sent with --call."
      $ opt Arg.int 4096 [ "max-frame-kb" ] "KB"
          "Inbound frame size limit; larger frames are refused with $(b,SRV003)."
      $ cache_arg
      $ flag [ "no-cache" ] "Serve cold: no in-memory tier, no persistent cache."
      $ fault
      $ path_opt [ "connect" ] "PATH"
          "Run as a one-shot client against the server at $(docv): send one request, \
           print the response, exit 0 on a result and 1 on an error response."
      $ path_opt [ "call" ] "METHOD"
          "Client: the method to call ($(b,analyze), $(b,vet), $(b,lint), $(b,status), \
           $(b,shutdown))."
      $ path_opt [ "file" ] "PATH" "Client: the program file to analyze."
      $ path_opt [ "raw" ] "PAYLOAD"
          "Client: send $(docv) verbatim as the request payload (for testing the \
           protocol-error paths)."
      $ flag [ "quiet" ] "Suppress the stderr lifecycle log.")

let () =
  let doc = "escape analysis on lists (Park & Goldberg, PLDI 1992)" in
  let info = Cmd.info "nmlc" ~version:"1.0.0" ~doc in
  let cmd =
    Cmd.group info
      [
        parse_cmd; typecheck_cmd; eval_cmd; analyze_cmd; batch_cmd; mono_cmd;
        optimize_cmd; run_cmd; compile_cmd; check_cmd; vet_cmd; lint_cmd; serve_cmd;
      ]
  in
  (* a usage error (unknown command, bad option value, missing file) is a
     bad input: exit 1 after cmdliner's message, never 124 *)
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok code) -> code
    | Ok (`Version | `Help) -> Cmd.Exit.ok
    | Error (`Parse | `Term) -> 1
    | Error `Exn -> Cmd.Exit.internal_error)

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

   Exit codes: 0 clean, 1 findings / divergence / user error,
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

let read_input file inline =
  match (file, inline) with
  | Some f, None -> (
      match In_channel.with_open_text f In_channel.input_all with
      | src -> (f, src)
      | exception Sys_error msg -> failwith msg)
  | None, Some src -> ("<command line>", src)
  | Some _, Some _ -> failwith "give either a file or -e, not both"
  | None, None -> failwith "give a program file or -e SRC"

let surface_of file inline =
  let name, src = read_input file inline in
  Nml.Surface.of_string ~file:name src

let diagnose format ~code loc msg =
  Format.eprintf "%a@."
    (Nml.Diagnostic.render format)
    [ Nml.Diagnostic.error ~code loc msg ]

let handle ?(format = Nml.Diagnostic.Human) f =
  try
    (match Sys.getenv_opt "NMLC_INTERNAL_ERROR" with
    | Some _ -> raise (Internal_error "forced by NMLC_INTERNAL_ERROR")
    | None -> ());
    f ();
    0
  with
  | Findings -> 1
  | Failure msg | Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Nml.Lexer.Error (loc, msg) ->
      diagnose format ~code:"LEX001" loc msg;
      1
  | Nml.Parser.Error (loc, msg) ->
      diagnose format ~code:"PARSE001" loc msg;
      1
  | Nml.Infer.Error (loc, msg) ->
      diagnose format ~code:"TYPE001" loc msg;
      1
  | Nml.Eval.Runtime_error msg | Runtime.Machine.Error msg | Backend.Vm.Error msg ->
      Printf.eprintf "runtime error: %s\n" msg;
      1
  | Escape.Enumerate.Higher_order msg ->
      Printf.eprintf "enumeration engine: program is not first order: %s\n" msg;
      1
  | Runtime.Machine.Out_of_memory | Backend.Vm.Out_of_memory ->
      Printf.eprintf
        "error: out of memory: the cell store is exhausted even after a collection \
         (raise --heap, or drop --no-grow)\n";
      2
  | Runtime.Machine.Out_of_fuel | Nml.Eval.Out_of_fuel | Backend.Vm.Out_of_fuel ->
      Printf.eprintf "error: out of fuel: the step budget is exhausted (raise --fuel)\n";
      3
  | Backend.Vm.Internal msg ->
      Printf.eprintf "nmlc: internal error: the bytecode backend broke an invariant: %s\n"
        msg;
      124
  | e ->
      Printf.eprintf "nmlc: internal error: %s\n" (Printexc.to_string e);
      124

(* ---- common arguments and plumbing ----------------------------------------- *)

(* One source-taking subcommand body = one [with_source] call: input
   resolution, the toolchain exception regime and the 0/1/2/3/124 exit
   mapping live in exactly one place. *)
let with_source ?format file inline k =
  handle ?format (fun () -> k (surface_of file inline))

let format_conv =
  Arg.enum
    [
      ("human", Nml.Diagnostic.Human);
      ("json", Nml.Diagnostic.Json);
      ("sarif", Nml.Diagnostic.Sarif);
    ]

let format_arg ~doc = Arg.(value & opt format_conv Nml.Diagnostic.Human & info [ "format" ] ~docv:"FORMAT" ~doc)

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Program file.")

let inline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "e"; "expr" ] ~docv:"SRC" ~doc:"Program given inline.")

(* ---- commands -------------------------------------------------------------- *)

let parse_cmd =
  let run file inline =
    with_source file inline (fun s -> Format.printf "%a@." Nml.Surface.pp s)
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse and pretty-print a program")
    Term.(const run $ file_arg $ inline_arg)

let typecheck_cmd =
  let run file inline =
    with_source file inline (fun s ->
        let prog = Nml.Infer.infer_program s in
        List.iter
          (fun (name, s) ->
            Format.printf "%s : %a@." name Nml.Infer.pp_scheme s)
          prog.Nml.Infer.schemes;
        Format.printf "main : %a@." Nml.Ty.pp (Nml.Infer.main_ground prog).Nml.Tast.ty)
  in
  Cmd.v (Cmd.info "typecheck" ~doc:"Infer and print definition type schemes")
    Term.(const run $ file_arg $ inline_arg)

let eval_cmd =
  let run file inline fuel =
    with_source file inline (fun s ->
        let v = Nml.Eval.run ?fuel s in
        Format.printf "%a@." Nml.Eval.pp_value v)
  in
  let fuel =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N" ~doc:"Bound the number of evaluation steps.")
  in
  Cmd.v (Cmd.info "eval" ~doc:"Run the reference interpreter")
    Term.(const run $ file_arg $ inline_arg $ fuel)

let stats_json stats =
  let module J = Nml.Json in
  let module Fix = Escape.Fixpoint in
  J.Obj
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

(* The generational heap with the spine-liveness hints: parameters whose
   argument spine the callee provably never needs past the head.
   Advisory metadata — the stats rows are identical with and without
   them. *)
let generational_config surface =
  let t = Framework.Spinelive.Solver.make (Nml.Infer.infer_program surface) in
  {
    Runtime.Heap.generational with
    Runtime.Heap.liveness_hints = Framework.Spinelive.dead_spine_params t;
  }

(* Storage section of [analyze --stats]/[--json]: execute the optimized
   program on a generational heap with a bounded step budget and report
   the heap counters.  Deterministic — the machine is exact and the pause
   rows are the cells-touched percentiles, never wall-clock. *)
let heap_row_of surface =
  let options =
    { Optimize.Transform.all with Optimize.Transform.pretenure = true }
  in
  let ir = (Optimize.Transform.optimize ~options surface).Optimize.Transform.ir in
  (* the same heap a [run --policy generational] uses, so the
     hint-acceptance counters show up here too *)
  let config = generational_config surface in
  let m = Runtime.Machine.create ~heap_size:4096 ~fuel:1_000_000 ~config () in
  match Runtime.Machine.eval m ir with
  | _ -> Ok (Runtime.Stats.to_row (Runtime.Machine.stats m))
  | exception Runtime.Machine.Out_of_fuel -> Error "step budget exhausted"
  | exception Runtime.Machine.Out_of_memory -> Error "storage exhausted"
  | exception Runtime.Machine.Error msg -> Error msg

let list_analyses () =
  Format.printf "@[<v 0>registered analyses:@,";
  List.iter
    (fun (e : Analyses.Registry.entry) ->
      let aliases =
        match e.Analyses.Registry.aliases with
        | [] -> ""
        | a -> Printf.sprintf " (alias: %s)" (String.concat ", " a)
      in
      Format.printf "  %-16s %s%s@,  %-16s domain: %s@,  %-16s cache: %s/%s@,"
        e.Analyses.Registry.name e.Analyses.Registry.doc aliases ""
        e.Analyses.Registry.domain "" Cache.Skey.schema_version
        e.Analyses.Registry.name)
    Analyses.Registry.all;
  Format.printf "@]@?"

let analyze_cmd =
  let run_escape file inline func enumerate local show_stats json =
    with_source file inline (fun s ->
        if json then begin
          if enumerate then
            failwith "--json reports the fixpoint solver, not --enumerate";
          let t = Escape.Fixpoint.make (Nml.Infer.infer_program s) in
          (* drive the same queries the report makes, then emit the counters *)
          ignore (Format.asprintf "%a" Escape.Report.program t);
          let module J = Nml.Json in
          let heap =
            match heap_row_of s with
            | Ok row -> J.Obj (List.map (fun (k, v) -> (k, J.int v)) row)
            | Error reason -> J.Obj [ ("skipped", J.Str reason) ]
          in
          let solver =
            match stats_json (Escape.Fixpoint.stats t) with
            | J.Obj fields -> fields
            | _ -> assert false
          in
          print_string (J.to_string (J.Obj (solver @ [ ("heap", heap) ])))
        end
        else if enumerate then begin
          let e = Escape.Enumerate.solve (Nml.Infer.infer_program s) in
          List.iter
            (fun (name, _) ->
              let prog = Nml.Infer.infer_program s in
              let inst = Nml.Infer.simplest_instance prog name in
              let n = Nml.Ty.arity inst in
              Format.printf "%s : %s@." name (Nml.Ty.to_string inst);
              for i = 1 to n do
                Format.printf "  G(%s, %d) = %s@." name i
                  (Escape.Besc.to_string (Escape.Enumerate.global e name ~arg:i))
              done)
            s.Nml.Surface.defs;
          Format.printf "(%d table entries, %d rounds)@." (Escape.Enumerate.entries e)
            (Escape.Enumerate.iterations e)
        end
        else begin
          let t = Escape.Fixpoint.make (Nml.Infer.infer_program s) in
          (match func with
          | Some f -> Format.printf "%a@." (fun ppf () -> Escape.Report.definition ppf t f) ()
          | None -> Format.printf "%a@." Escape.Report.program t);
          if local then begin
            match s.Nml.Surface.main with
            | Nml.Ast.App (_, _, _) as call ->
                let rec head = function Nml.Ast.App (_, f, _) -> head f | e -> e in
                let rec args acc = function
                  | Nml.Ast.App (_, f, a) -> args (a :: acc) f
                  | _ -> acc
                in
                (match head call with
                | Nml.Ast.Var (_, f) ->
                    Format.printf "%a@."
                      (fun ppf () -> Escape.Report.call ppf t f (args [] call))
                      ()
                | _ -> failwith "--local: the main expression is not a call of a definition")
            | _ -> failwith "--local: the main expression is not a call"
          end;
          (* last, so a failing stage above never leaves a misleading
             half-report with statistics attached *)
          if show_stats then begin
            Format.printf "-- solver --@.%a@." Escape.Fixpoint.pp_stats
              (Escape.Fixpoint.stats t);
            match heap_row_of s with
            | Ok row ->
                Format.printf "-- storage (generational heap) --@.%a@."
                  (Format.pp_print_list ~pp_sep:Format.pp_print_newline
                     (fun ppf (k, v) -> Format.fprintf ppf "%-18s %d" k v))
                  row
            | Error reason ->
                Format.printf "-- storage (generational heap) --@.skipped (%s)@."
                  reason
          end
        end)
  in
  let run file inline func enumerate local show_stats json analysis listing =
    if listing then begin
      list_analyses ();
      0
    end
    else if String.equal analysis "escape" then
      run_escape file inline func enumerate local show_stats json
    else
      with_source file inline (fun s ->
          let e =
            match Analyses.Registry.find analysis with
            | Some e -> e
            | None ->
                failwith
                  (Printf.sprintf "unknown analysis %s (try --list-analyses)" analysis)
          in
          if enumerate || local || json || func <> None then
            failwith "--enumerate/--local/--json/-f apply to the escape analysis only";
          let o = e.Analyses.Registry.run (Nml.Infer.infer_program s) in
          print_string o.Analyses.Registry.output;
          if show_stats then
            Format.printf
              "-- solver --@.analysis            %s@.definitions         \
               %d@.entry evaluations   %d@."
              e.Analyses.Registry.name o.Analyses.Registry.defs
              o.Analyses.Registry.evaluations)
  in
  let func =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "fun" ] ~docv:"NAME" ~doc:"Analyze a single definition.")
  in
  let enumerate =
    Arg.(
      value & flag
      & info [ "enumerate" ]
          ~doc:"Use the full-enumeration first-order engine instead of the probe engine.")
  in
  let local =
    Arg.(
      value & flag
      & info [ "local" ] ~doc:"Also run the local escape test on the main call.")
  in
  let show_stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print solver statistics (passes, entry evaluations, SCCs, application \
                cache behaviour) after the report.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the solver statistics as a JSON document instead of the report \
                (not available with --enumerate).")
  in
  let analysis =
    Arg.(
      value & opt string "escape"
      & info [ "analysis" ] ~docv:"NAME"
          ~doc:
            "Which registered analysis to run: $(b,escape) (default), $(b,usage) \
             (alias $(b,strictness)), $(b,spine-liveness), $(b,escape-x-usage) \
             (alias $(b,product)), or $(b,sharing) (alias $(b,alias)).  See \
             $(b,--list-analyses).")
  in
  let listing =
    Arg.(
      value & flag
      & info [ "list-analyses" ]
          ~doc:"List the registered analyses (name, question, abstract domain) and exit.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Escape analysis report (global tests and sharing)")
    Term.(
      const run $ file_arg $ inline_arg $ func $ enumerate $ local $ show_stats
      $ json $ analysis $ listing)

let batch_cmd =
  let expand path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".nml")
      |> List.sort String.compare
      |> List.map (Filename.concat path)
    else [ path ]
  in
  let run paths jobs cache_dir no_cache lint format analysis =
    let rc = ref 0 in
    let code =
      handle (fun () ->
          let files = List.concat_map expand paths in
          if files = [] then failwith "no .nml program files to analyze";
          let store = if no_cache then None else Some (Cache.Store.create cache_dir) in
          (* janitor: staging files a crashed earlier run left behind *)
          (match store with Some s -> ignore (Cache.Store.cleanup_tmp s) | None -> ());
          let jobs = match jobs with Some n -> max 1 n | None -> Domain.recommended_domain_count () in
          let analyze =
            if lint then begin
              if not (String.equal analysis "escape") then
                failwith "--lint runs the lint rules; it does not take --analysis";
              Some (fun ~store path -> Lint.Batch.analyze_file ~store path)
            end
            else if String.equal analysis "escape" then None
            else
              match Analyses.Registry.find analysis with
              | None ->
                  failwith
                    (Printf.sprintf "unknown analysis %s (try nmlc analyze --list-analyses)"
                       analysis)
              | Some e when String.equal e.Analyses.Registry.name "escape" -> None
              | Some e -> Some (fun ~store path -> Analyses.Registry.batch_job e ~store path)
          in
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
                  ~jobs files)
          in
          let total f = List.fold_left (fun acc r -> acc + f r) 0 results in
          let ok = List.length (List.filter (fun r -> r.Cache.Batch.code = 0) results) in
          let evals = total (fun r -> r.Cache.Batch.evaluations) in
          let hits = total (fun r -> r.Cache.Batch.scc_hits) in
          let misses = total (fun r -> r.Cache.Batch.scc_misses) in
          let findings = total (fun r -> r.Cache.Batch.findings) in
          (match format with
          | `Human ->
              List.iter
                (fun r ->
                  Format.printf "== %s ==@." r.Cache.Batch.path;
                  print_string r.Cache.Batch.output;
                  (* keep each file's stderr next to its header in
                     captured output *)
                  flush stdout;
                  prerr_string r.Cache.Batch.errors;
                  flush stderr)
                results;
              if lint then
                Format.printf
                  "lint: %d file(s), %d clean, %d finding(s); %d entry evaluation(s), \
                   %d scc hit(s), %d scc miss(es)@."
                  (List.length results) ok findings evals hits misses
              else
                Format.printf
                  "batch: %d file(s), %d ok, %d error(s); %d entry evaluation(s), %d scc \
                   hit(s), %d scc miss(es)@."
                  (List.length results) ok
                  (List.length results - ok)
                  evals hits misses;
              let failed =
                List.filter (fun r -> r.Cache.Batch.code = 124) results
              in
              if failed <> [] then
                Format.printf "failed: %s@."
                  (String.concat ", "
                     (List.map (fun r -> r.Cache.Batch.path) failed));
              let skipped =
                List.length (List.filter (fun r -> r.Cache.Batch.code = 130) results)
              in
              if skipped > 0 then
                Format.printf "%s: interrupted, %d file(s) not analyzed@."
                  (if lint then "lint" else "batch")
                  skipped
          | `Json ->
              let module J = Nml.Json in
              let file_json r =
                J.Obj
                  ([
                     ("path", J.Str r.Cache.Batch.path);
                     ("code", J.int r.Cache.Batch.code);
                     ("defs", J.int r.Cache.Batch.defs);
                   ]
                  @ (if lint then [ ("findings", J.int r.Cache.Batch.findings) ] else [])
                  @ [
                      ("evaluations", J.int r.Cache.Batch.evaluations);
                      ("scc_hits", J.int r.Cache.Batch.scc_hits);
                      ("scc_misses", J.int r.Cache.Batch.scc_misses);
                    ]
                  @
                  if r.Cache.Batch.errors = "" then []
                  else [ ("errors", J.Str r.Cache.Batch.errors) ])
              in
              print_string
                (J.to_string
                   (J.Obj
                      ([
                         ("schema", J.Str "nmlc/batch-v1");
                         ("files", J.Arr (List.map file_json results));
                       ]
                      @ (if lint then [ ("findings", J.int findings) ] else [])
                      @ [
                          ("evaluations", J.int evals);
                          ("scc_hits", J.int hits);
                          ("scc_misses", J.int misses);
                          ("errors", J.int (List.length results - ok));
                        ]))));
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
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Number of analysis domains (default: the machine's recommended \
                domain count).")
  in
  let cache_dir =
    Arg.(
      value
      & opt string ".nmlc-cache"
      & info [ "cache" ] ~docv:"DIR" ~doc:"Persistent summary cache directory.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Analyze cold, without reading or writing the cache.")
  in
  let lint =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:"Run the lint rules instead of the escape-summary report; per-SCC \
                findings are persisted and invalidated through the same cache.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("human", `Human); ("json", `Json) ]) `Human
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:"Report rendering: $(b,human) (default, per-file reports and a summary \
                line) or $(b,json) (one machine-readable document, no timing data).")
  in
  let analysis =
    Arg.(
      value & opt string "escape"
      & info [ "analysis" ] ~docv:"NAME"
          ~doc:"Which registered analysis to run per file (default $(b,escape)); see \
                $(b,nmlc analyze --list-analyses).")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Analyze or lint many programs in parallel through the persistent summary \
             cache")
    Term.(const run $ paths $ jobs $ cache_dir $ no_cache $ lint $ format $ analysis)

let options_term =
  let no_mono =
    Arg.(value & flag & info [ "no-mono" ] ~doc:"Do not monomorphize first.")
  in
  let no_reuse = Arg.(value & flag & info [ "no-reuse" ] ~doc:"Disable in-place reuse.") in
  let no_alias_reuse =
    Arg.(
      value & flag
      & info [ "no-alias-reuse" ]
          ~doc:"License in-place reuse from the Theorem-2 spine arithmetic only, \
                without the flow-sensitive sharing analysis.")
  in
  let no_stack =
    Arg.(value & flag & info [ "no-stack" ] ~doc:"Disable stack allocation.")
  in
  let no_block =
    Arg.(value & flag & info [ "no-block" ] ~doc:"Disable block allocation.")
  in
  let pretenure =
    Arg.(
      value & flag
      & info [ "pretenure" ]
          ~doc:"Retarget escape-doomed cons sites (escaping literal spines, the \
                result spine of main) to tenured-at-birth allocation.  A hint for \
                the generational heap; a no-op under the legacy heap.")
  in
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
  Term.(const mk $ no_mono $ no_reuse $ no_alias_reuse $ no_stack $ no_block $ pretenure)

let mono_cmd =
  let run file inline =
    with_source file inline (fun s ->
        let r = Nml.Mono.run s in
        Format.printf "%a@.@." Nml.Surface.pp r.Nml.Mono.program;
        List.iter
          (fun (d, n, i) ->
            Format.printf "-- %s specialized as %s at %s@." d n (Nml.Ty.to_string i))
          r.Nml.Mono.instances)
  in
  Cmd.v
    (Cmd.info "mono" ~doc:"Monomorphize: one copy of each definition per used instance")
    Term.(const run $ file_arg $ inline_arg)

let optimize_cmd =
  let run file inline options =
    with_source file inline (fun s ->
        let r = Optimize.Transform.optimize ~options s in
        Format.printf "%a@." Optimize.Transform.pp_report r;
        Format.printf "%a@." Runtime.Ir.pp r.Optimize.Transform.ir)
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Apply the storage optimizations and print the program")
    Term.(const run $ file_arg $ inline_arg $ options_term)

let run_cmd =
  let run file inline options optimized heap_size no_grow check compare fuel policy
      nursery no_regions no_pretenure backend =
    with_source file inline (fun s ->
        let base =
          match policy with
          | `Legacy -> Runtime.Heap.legacy
          | `Generational -> generational_config s
        in
        let config =
          {
            base with
            Runtime.Heap.regions = base.Runtime.Heap.regions && not no_regions;
            pretenure = base.Runtime.Heap.pretenure && not no_pretenure;
            nursery =
              (match nursery with
              | Some n -> max 1 n
              | None -> base.Runtime.Heap.nursery);
          }
        in
        (* tenured-at-birth sites only exist if the optimizer emits them;
           a generational run turns the pass on unless the heap ignores it *)
        let options =
          if config.Runtime.Heap.pretenure then
            { options with Optimize.Transform.pretenure = true }
          else options
        in
        let exec ir =
          match backend with
          | `Interp ->
              let m =
                Runtime.Machine.create ~heap_size ~grow:(not no_grow)
                  ~check_arenas:check ?fuel ~config ()
              in
              let w = Runtime.Machine.eval m ir in
              (Runtime.Machine.read_value m w, Runtime.Machine.stats m)
          | `Vm ->
              let m =
                Backend.Vm.create ~heap_size ~grow:(not no_grow)
                  ~check_arenas:check ?fuel ~config ()
              in
              let v = Backend.Vm.eval m (Backend.Vm.compile ir) in
              (Backend.Vm.read_value m v, Backend.Vm.stats m)
        in
        let show label (v, stats) =
          Format.printf "%s result: %a@." label Nml.Eval.pp_value v;
          Format.printf "%a@." Runtime.Stats.pp stats
        in
        let baseline () = exec (Runtime.Ir.of_program s) in
        let opt () = exec (Optimize.Transform.optimize ~options s).Optimize.Transform.ir in
        if compare then begin
          show "baseline" (baseline ());
          show "optimized" (opt ())
        end
        else if optimized then show "optimized" (opt ())
        else show "baseline" (baseline ()))
  in
  let optimized =
    Arg.(value & flag & info [ "O"; "optimized" ] ~doc:"Run the optimized program.")
  in
  let heap =
    Arg.(value & opt int 4096 & info [ "heap" ] ~docv:"CELLS" ~doc:"Cell store capacity.")
  in
  let no_grow =
    Arg.(value & flag & info [ "no-grow" ] ~doc:"Fail instead of growing the store.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check-arenas" ] ~doc:"Validate arena safety at every arena exit.")
  in
  let compare =
    Arg.(
      value & flag
      & info [ "compare" ] ~doc:"Run both baseline and optimized, printing both.")
  in
  let fuel =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N" ~doc:"Bound the number of machine steps.")
  in
  let policy =
    Arg.(
      value
      & opt (enum [ ("legacy", `Legacy); ("generational", `Generational) ]) `Legacy
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Heap policy: $(b,legacy) (default, the original mark-sweep store) \
                or $(b,generational) (nursery + promotion, escape verdicts as \
                pretenuring hints, extra statistics rows).")
  in
  let nursery =
    Arg.(
      value
      & opt (some int) None
      & info [ "nursery" ] ~docv:"CELLS"
          ~doc:"Nursery size for $(b,--policy generational) (default 1024): a minor \
                collection runs whenever this many young cells are live.")
  in
  let no_regions =
    Arg.(
      value & flag
      & info [ "no-regions" ]
          ~doc:"Ignore arena annotations: region/block allocations fall back to \
                ordinary heap cells (and arena exits reclaim nothing).")
  in
  let no_pretenure =
    Arg.(
      value & flag
      & info [ "no-pretenure" ]
          ~doc:"Under $(b,--policy generational), do not tenure escape-doomed \
                allocations at birth; everything unannotated starts in the nursery.")
  in
  let backend =
    Arg.(
      value
      & opt (enum [ ("interp", `Interp); ("vm", `Vm) ]) `Interp
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:"Execution backend: $(b,interp) (default, the tree-walking storage \
                simulator) or $(b,vm) (the compact bytecode VM: ANF, flat closures, \
                known calls, tail calls — same heap policy, same statistics).")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute on the storage simulator and print statistics")
    Term.(
      const run $ file_arg $ inline_arg $ options_term $ optimized $ heap $ no_grow
      $ check $ compare $ fuel $ policy $ nursery $ no_regions $ no_pretenure
      $ backend)

let compile_cmd =
  let run file inline options optimized dump_anf dump_bytecode =
    with_source file inline (fun s ->
        let ir =
          if optimized then
            (Optimize.Transform.optimize ~options s).Optimize.Transform.ir
          else Runtime.Ir.of_program s
        in
        if dump_anf then begin
          let a = Backend.Anf.lower ir in
          (match Backend.Anf.verify a with
          | Ok () -> ()
          | Error m ->
              raise (Backend.Vm.Internal ("ANF verification failed: " ^ m)));
          Format.printf "%a@." Backend.Anf.pp a
        end;
        let code = Backend.Vm.compile ir in
        if dump_bytecode then Format.printf "%a@." Backend.Vm.pp_code code
        else if not dump_anf then
          Format.printf "%a@." Backend.Closure.pp_report (Backend.Vm.report code))
  in
  let optimized =
    Arg.(
      value & flag
      & info [ "O"; "optimized" ] ~doc:"Compile the optimized program.")
  in
  let dump_anf =
    Arg.(
      value & flag
      & info [ "dump-anf" ]
          ~doc:"Print the A-normal form (verified: named intermediates, saturated \
                primitives, storage annotations as first-class forms).")
  in
  let dump_bytecode =
    Arg.(
      value & flag
      & info [ "dump-bytecode" ]
          ~doc:"Print the register bytecode after closure conversion, one function \
                per lambda nest, plus the conversion report.")
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Lower through the bytecode middle-end (ANF, closure conversion) and \
             print the requested stage; with no dump flag, print the closure-\
             conversion report")
    Term.(
      const run $ file_arg $ inline_arg $ options_term $ optimized $ dump_anf
      $ dump_bytecode)

let check_cmd =
  let run files count seed heap fuel chaos fault =
    handle (fun () ->
        let count = max 0 count in
        let cfg = { Check.Harness.heap; fuel; chaos; seed; fault } in
        (* the given files first: the corpus check stops at the first
           failure, which must not hide one of theirs *)
        let corpus =
          List.map (fun f -> (f, In_channel.with_open_text f In_channel.input_all)) files
          @ Check.Harness.builtin_corpus
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
          (count = 0 || report "random" (Check.Harness.check_random cfg ~count)) && ok
        in
        if not ok then failwith "soundness divergence (see counterexample above)";
        Format.printf "soundness: OK (differential oracle%s)@."
          (if chaos then ", chaos on" else ""))
  in
  let count =
    Arg.(
      value & opt int 200
      & info [ "count" ] ~docv:"N" ~doc:"Number of random programs to generate.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S"
          ~doc:"Seed for program generation and fault injection; equal seeds reproduce \
                identical runs, including any counterexample.")
  in
  let heap =
    Arg.(
      value
      & opt int Check.Harness.default.Check.Harness.heap
      & info [ "heap" ] ~docv:"CELLS" ~doc:"Capacity of the fixed-size chaos heaps.")
  in
  let fuel =
    Arg.(
      value
      & opt int Check.Harness.default.Check.Harness.fuel
      & info [ "fuel" ] ~docv:"N" ~doc:"Step budget per run (0 = unlimited).")
  in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:"Inject faults into the machine: forced collections at pseudo-random \
                allocation points and poisoning of freed cells.")
  in
  let fault =
    Arg.(
      value
      & opt
          (enum
             [
               ("none", Check.Harness.No_fault);
               ("arena", Check.Harness.Widen_arena);
               ("dcons", Check.Harness.Misuse_dcons);
             ])
          Check.Harness.No_fault
      & info [ "inject-fault" ] ~docv:"KIND"
          ~doc:"Deliberately break one optimizer verdict (arena: widen a stack/block \
                verdict; dcons: misuse a reuse verdict) to demonstrate that the \
                harness detects it.  Expected to exit nonzero.")
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
    Term.(const run $ files $ count $ seed $ heap $ fuel $ chaos $ fault)

let vet_cmd =
  let run file inline options format mutate seed fault =
    with_source ~format file inline (fun s ->
        let ir =
          match fault with
          | Check.Harness.No_fault ->
              (Optimize.Transform.optimize ~options s).Optimize.Transform.ir
          | f -> (
              match Check.Harness.sabotage f s with
              | Some ir -> ir
              | None -> failwith "the requested fault does not apply to this program")
        in
        match mutate with
        | Some count ->
            let o = Vet.Mutate.campaign ~seed ~count ~source:s ir in
            if o.Vet.Mutate.points = 0 then
              Format.printf "vet: no mutation points in this program@."
            else begin
              Format.printf
                "vet: %d mutation point(s), %d draw(s), %d detected, %d survived@."
                o.Vet.Mutate.points o.Vet.Mutate.draws o.Vet.Mutate.detected
                (o.Vet.Mutate.draws - o.Vet.Mutate.detected);
              List.iter
                (fun l -> Format.printf "survivor: %s@." l)
                o.Vet.Mutate.survivors;
              if o.Vet.Mutate.detected < o.Vet.Mutate.draws then raise Findings
            end
        | None -> (
            (* the same advisory dead-spine hints a [run --policy
               generational] would hand the heap — audited here instead
               of trusted *)
            let hints =
              match generational_config s with
              | config -> config.Runtime.Heap.liveness_hints
              | exception _ -> []
            in
            let ds, summary = Vet.Verify.audit ~hints ~source:s ir in
            match format with
            | Nml.Diagnostic.Human ->
                if ds <> [] then
                  Format.printf "%a@." (Nml.Diagnostic.render Nml.Diagnostic.Human) ds;
                Format.printf "vet: %d annotation(s) audited, %d finding(s)@."
                  summary.Vet.Verify.audited summary.Vet.Verify.findings;
                if summary.Vet.Verify.findings > 0 then raise Findings
            | Nml.Diagnostic.Json ->
                let module J = Nml.Json in
                print_string
                  (J.to_string
                     (J.Obj
                        [
                          ("schema", J.Str "nmlc/vet-v1");
                          ("audited", J.int summary.Vet.Verify.audited);
                          ("findings", J.int summary.Vet.Verify.findings);
                          ( "diagnostics",
                            J.Arr (List.map Nml.Diagnostic.to_json ds) );
                        ]));
                if summary.Vet.Verify.findings > 0 then raise Findings
            | Nml.Diagnostic.Sarif ->
                print_string (Nml.Json.to_string (Nml.Diagnostic.to_sarif ds));
                if summary.Vet.Verify.findings > 0 then raise Findings))
  in
  let format =
    format_arg
      ~doc:"Diagnostic rendering: $(b,human) (default), $(b,json) or $(b,sarif)."
  in
  let mutate =
    Arg.(
      value
      & opt (some int) None
      & info [ "mutate" ] ~docv:"N"
          ~doc:"Mutation-test the verifier: draw N seeded mutations of the optimized \
                program's annotations and require every mutant to be detected.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"S" ~doc:"Seed for --mutate; equal seeds reproduce runs.")
  in
  let fault =
    Arg.(
      value
      & opt
          (enum
             [
               ("none", Check.Harness.No_fault);
               ("arena", Check.Harness.Widen_arena);
               ("dcons", Check.Harness.Misuse_dcons);
             ])
          Check.Harness.No_fault
      & info [ "inject-fault" ] ~docv:"KIND"
          ~doc:"Vet a deliberately broken annotation (arena: widen a stack/block \
                verdict; dcons: misuse a reuse verdict) instead of the optimizer's \
                output.  Expected to exit nonzero.")
  in
  Cmd.v
    (Cmd.info "vet"
       ~doc:"Independently re-verify the optimizer's storage annotations, reporting \
             violated proof obligations as source-located diagnostics")
    Term.(
      const run $ file_arg $ inline_arg $ options_term $ format $ mutate $ seed $ fault)

let lint_cmd =
  let known_codes () = String.concat ", " (Lint.Registry.codes ()) in
  let parse_code flag c =
    let c = String.uppercase_ascii c in
    match Lint.Registry.find c with
    | Some _ -> c
    | None ->
        failwith
          (Printf.sprintf "%s: unknown rule %s (known rules: %s)" flag c
             (known_codes ()))
  in
  let parse_severity spec =
    match String.index_opt spec '=' with
    | None ->
        failwith
          (Printf.sprintf "--severity: expected CODE=LEVEL, got %s" spec)
    | Some i -> (
        let code = parse_code "--severity" (String.sub spec 0 i) in
        let level = String.sub spec (i + 1) (String.length spec - i - 1) in
        match Nml.Diagnostic.severity_of_name (String.lowercase_ascii level) with
        | Some s -> (code, s)
        | None ->
            failwith
              (Printf.sprintf
                 "--severity: level must be error, warning or note, got %s" level))
  in
  let run file inline format only disable severities fault =
    handle ~format (fun () ->
        let name, src = read_input file inline in
        let config =
          {
            Lint.Registry.only = List.map (parse_code "--only") only;
            disabled = List.map (parse_code "--disable") disable;
            severities = List.map parse_severity severities;
          }
        in
        let o = Lint.Engine.run ~config ~fault ~file:name src in
        let n = List.length o.Lint.Engine.findings in
        (match format with
        | Nml.Diagnostic.Human ->
            if o.Lint.Engine.findings <> [] then
              Format.printf "%a@."
                (Nml.Diagnostic.render Nml.Diagnostic.Human)
                o.Lint.Engine.findings;
            Format.printf "lint: %d finding(s), %d suppressed@." n
              o.Lint.Engine.suppressed
        | Nml.Diagnostic.Json ->
            let module J = Nml.Json in
            print_string
              (J.to_string
                 (J.Obj
                    [
                      ("schema", J.Str "nmlc/lint-v1");
                      ("findings", J.int n);
                      ("suppressed", J.int o.Lint.Engine.suppressed);
                      ( "diagnostics",
                        J.Arr (List.map Nml.Diagnostic.to_json o.Lint.Engine.findings)
                      );
                    ]))
        | Nml.Diagnostic.Sarif ->
            print_string
              (Nml.Json.to_string
                 (Nml.Diagnostic.to_sarif
                    ~rules:(Lint.Registry.sarif_rules ())
                    o.Lint.Engine.findings)));
        if n > 0 then raise Findings)
  in
  let format =
    format_arg
      ~doc:"Finding rendering: $(b,human) (default), $(b,json) or $(b,sarif) \
            (SARIF 2.1.0, for code-scanning upload)."
  in
  let only =
    Arg.(
      value & opt_all string []
      & info [ "only" ] ~docv:"CODE"
          ~doc:"Run only this rule (repeatable), e.g. $(b,--only LINT001).")
  in
  let disable =
    Arg.(
      value & opt_all string []
      & info [ "disable" ] ~docv:"CODE" ~doc:"Disable this rule (repeatable).")
  in
  let severities =
    Arg.(
      value & opt_all string []
      & info [ "severity" ] ~docv:"CODE=LEVEL"
          ~doc:"Override a rule's severity (repeatable), e.g. \
                $(b,--severity LINT002=warning).")
  in
  let fault =
    Arg.(
      value
      & opt
          (enum
             [
               ("none", Lint.Rule.No_fault);
               ("invariance", Lint.Rule.Corrupt_invariance);
               ("sharing", Lint.Rule.Corrupt_sharing);
             ])
          Lint.Rule.No_fault
      & info [ "inject-fault" ] ~docv:"KIND"
          ~doc:"Seed a lie an audit rule must catch: $(b,invariance) corrupts one \
                escape verdict before the Theorem-1 comparison so that $(b,LINT003) \
                must fire (needs a definition used at two or more instances); \
                $(b,sharing) makes one reuse candidate's sharing verdict \
                spine-shared so that $(b,LINT008) must fire (needs a reuse \
                candidate).  The cache is bypassed.  Expected to exit nonzero.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Escape-informed lint rules: missed reuse opportunities, heap-doomed \
             results, Theorem-1 instance-invariance self-audit, dead spines, unused \
             bindings and unreachable branches, with inline \
             $(b,(* nmlc-disable ... *)) suppressions")
    Term.(
      const run $ file_arg $ inline_arg $ format $ only $ disable $ severities $ fault)

let serve_cmd =
  let module J = Nml.Json in
  (* the one-shot client: connect, send one frame, print the response *)
  let client ~socket ~call ~file ~raw ~deadline_ms =
    let payload =
      match raw with
      | Some s -> s
      | None -> (
          match call with
          | None -> failwith "give --call METHOD or --raw PAYLOAD with --connect"
          | Some m ->
              if Serve.Protocol.meth_of_name m = None then
                failwith (Printf.sprintf "unknown method %S" m);
              let params =
                (match file with Some f -> [ ("path", J.Str f) ] | None -> [])
                @
                match deadline_ms with
                | Some d -> [ ("deadline_ms", J.int d) ]
                | None -> []
              in
              J.to_string
                (J.Obj
                   ([ ("id", J.int 1); ("method", J.Str m) ]
                   @ if params = [] then [] else [ ("params", J.Obj params) ])))
    in
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (match Unix.connect fd (Unix.ADDR_UNIX socket) with
        | () -> ()
        | exception Unix.Unix_error (e, _, _) ->
            failwith
              (Printf.sprintf "cannot connect to %s: %s" socket
                 (Unix.error_message e)));
        if not (Serve.Frame.write fd payload) then
          failwith "the server closed the connection before the request was sent";
        match Serve.Frame.read fd with
        | Error e ->
            failwith
              (Format.asprintf "no response: %a" Serve.Frame.pp_error e)
        | Ok resp ->
            print_string resp;
            let failed =
              match J.parse resp with
              | exception J.Parse_error _ -> false
              | json -> J.member "error" json <> None
            in
            if failed then raise Findings)
  in
  let run socket stdio jobs queue deadline_ms max_frame_kb cache_dir no_cache
      fault connect call file raw quiet =
    handle (fun () ->
        match connect with
        | Some sock -> client ~socket:sock ~call ~file ~raw ~deadline_ms
        | None ->
            let store =
              if no_cache then None
              else Some (Cache.Store.create ~memory:true ~write_back:true cache_dir)
            in
            (match store with
            | Some s -> ignore (Cache.Store.cleanup_tmp s)
            | None -> ());
            let transport =
              if stdio then Serve.Server.Stdio
              else Serve.Server.Socket (Option.value socket ~default:".nmlc.sock")
            in
            let cfg =
              {
                (Serve.Server.default_config transport) with
                Serve.Server.jobs =
                  (match jobs with
                  | Some n -> max 1 n
                  | None -> Domain.recommended_domain_count ());
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
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix socket to listen on (default: $(b,.nmlc.sock)).")
  in
  let stdio =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:"Serve a single session on stdin/stdout instead of a socket.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains (default: the machine's recommended domain count).")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:"Bounded request queue capacity; beyond it the oldest queued request \
                is shed with $(b,SRV005) and a retry-after hint.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Server: default per-request deadline (default 30000; 0 disables). \
                Client: the $(b,deadline_ms) param sent with --call.")
  in
  let max_frame_kb =
    Arg.(
      value & opt int 4096
      & info [ "max-frame-kb" ] ~docv:"KB"
          ~doc:"Inbound frame size limit; larger frames are refused with $(b,SRV003).")
  in
  let cache_dir =
    Arg.(
      value
      & opt string ".nmlc-cache"
      & info [ "cache" ] ~docv:"DIR" ~doc:"Persistent summary cache directory.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Serve cold: no in-memory tier, no persistent cache.")
  in
  let fault =
    Arg.(
      value
      & opt
          (enum (List.map (fun f -> (Serve.Fault.to_string f, f)) Serve.Fault.all))
          Serve.Fault.None_
      & info [ "inject-fault" ] ~docv:"KIND"
          ~doc:"Deliberately break one layer of the daemon ($(b,worker-crash), \
                $(b,slow-request), $(b,malformed-frame), $(b,cache-corrupt), \
                $(b,oom)) to exercise the supervision, deadline and self-heal \
                machinery.")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"PATH"
          ~doc:"Run as a one-shot client against the server at $(docv): send one \
                request, print the response, exit 0 on a result and 1 on an error \
                response.")
  in
  let call =
    Arg.(
      value
      & opt (some string) None
      & info [ "call" ] ~docv:"METHOD"
          ~doc:"Client: the method to call ($(b,analyze), $(b,vet), $(b,lint), \
                $(b,status), $(b,shutdown)).")
  in
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~docv:"PATH" ~doc:"Client: the program file to analyze.")
  in
  let raw =
    Arg.(
      value
      & opt (some string) None
      & info [ "raw" ] ~docv:"PAYLOAD"
          ~doc:"Client: send $(docv) verbatim as the request payload (for testing \
                the protocol-error paths).")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet" ] ~doc:"Suppress the stderr lifecycle log.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"A fault-tolerant analysis daemon: framed JSON-RPC over a Unix socket \
             or stdio, the summary cache held hot in memory, per-request deadlines, \
             bounded-queue load shedding, supervised worker domains and a clean \
             signal drain")
    Term.(
      const run $ socket $ stdio $ jobs $ queue $ deadline_ms $ max_frame_kb
      $ cache_dir $ no_cache $ fault $ connect $ call $ file $ raw $ quiet)

let () =
  let doc = "escape analysis on lists (Park & Goldberg, PLDI 1992)" in
  let info = Cmd.info "nmlc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            parse_cmd; typecheck_cmd; eval_cmd; analyze_cmd; batch_cmd; mono_cmd;
            optimize_cmd; run_cmd; compile_cmd; check_cmd; vet_cmd; lint_cmd;
            serve_cmd;
          ]))

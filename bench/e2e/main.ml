(* The end-to-end benchmark for nmlc.

   main.exe [--seed N] [--seconds S] [--trace 0|1] [--trace-file FILE]
            [--smoke] [--json FILE]
     runs every workload, each in a process of its own (so peak heap
     belongs to one workload), and exits 1 if any output was wrong;
   main.exe --workload W ...
     runs one workload in this process and ends with its result line;
   main.exe --compare A.json B.json
     compares two sets of runs recorded with --json.

   See README.md for the workloads and metrics. *)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let run_one ~workload ~seed ~seconds ~smoke ~traced ~json ~trace_file =
  let f =
    match List.assoc_opt workload Workloads.all with
    | Some f -> f
    | None ->
        Printf.eprintf "unknown workload %s (known: %s)\n" workload
          (String.concat ", " (List.map fst Workloads.all));
        exit 2
  in
  Printf.printf "== %s (seed %d, %g s, tracing %s)\n%!" workload seed seconds
    (if traced then "on" else "off");
  let values = f { Workloads.seed; seconds; smoke; traced } in
  let attempted = !Workloads.attempted and failed = !Workloads.failed in
  let values =
    if traced then
      List.map
        (fun (name, _) ->
          (name, Option.value ~default:0. (List.assoc_opt name values)))
        Metrics.per_layer
    else
      values
      @ [
          ("peak_heap_mb", peak_heap_mb ());
          ("error_rate", float_of_int failed /. float_of_int (max 1 attempted));
        ]
  in
  let r = { Metrics.workload; seed; traced; attempted; failed; values } in
  Format.printf "%a%!" Metrics.pp_result r;
  Option.iter (fun file -> Metrics.append_file file r) json;
  Option.iter (fun file -> Trace.write_chrome file !Trace.spans) trace_file;
  print_endline (Metrics.result_line r);
  exit (if failed = 0 && attempted > 0 then 0 else 1)

(* One child process per workload (and per traced run); true when all
   of them succeeded. *)
let run_all ~seed ~seconds ~smoke ~traced ~json ~trace_file =
  let child workload ~traced =
    let args =
      [ "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
        Printf.sprintf "%g" seconds; "--trace"; (if traced then "1" else "0") ]
      @ (if smoke then [ "--smoke" ] else [])
      @ (match json with Some f -> [ "--json"; f ] | None -> [])
      @
      match trace_file with
      | Some f when traced ->
          [ "--trace-file"; Printf.sprintf "%s-%s.json" (Filename.remove_extension f) workload ]
      | _ -> []
    in
    flush_all ();
    let pid =
      Unix.create_process Sys.executable_name
        (Array.of_list (Sys.executable_name :: args))
        Unix.stdin Unix.stdout Unix.stderr
    in
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 -> true
    | _ ->
        Printf.eprintf "e2e: %s%s FAILED\n%!" workload (if traced then " (traced)" else "");
        false
  in
  List.fold_left
    (fun ok (w, _) ->
      let plain = child w ~traced:false in
      let layered = (not traced) || child w ~traced:true in
      ok && plain && layered)
    true Workloads.all

let () =
  let workload = ref None and seed = ref 1 and seconds = ref None in
  let traced = ref false and trace_file = ref None and smoke = ref false in
  let json = ref None and compare = ref None in
  let specs =
    [
      ("--workload", Arg.String (fun w -> workload := Some w), "W run one workload in-process");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs (default 1)");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S measured seconds per run (default 10)");
      ( "--trace",
        Arg.Int
          (function
          | 0 -> traced := false
          | 1 -> traced := true
          | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1 per-layer traced run" );
      ( "--trace-file",
        Arg.String
          (fun f ->
            trace_file := Some f;
            traced := true),
        "FILE also write the spans as Chrome trace-event JSON" );
      ("--smoke", Arg.Set smoke, " tiny sizes, one pass");
      ("--json", Arg.String (fun f -> json := Some f), "FILE append the results to FILE");
      ( "--compare",
        Arg.Tuple
          (let a = ref "" in
           [ Arg.Set_string a; Arg.String (fun b -> compare := Some (!a, b)) ]),
        "A.json B.json compare two sets of runs" );
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [options]";
  match !compare with
  | Some (a, b) ->
      let ok = Metrics.compare_sets Format.std_formatter (Metrics.read_file a) (Metrics.read_file b) in
      exit (if ok then 0 else 1)
  | None -> (
      let seconds = Option.value !seconds ~default:10. in
      let smoke = !smoke and seed = !seed and traced = !traced in
      match !workload with
      | Some workload ->
          run_one ~workload ~seed ~seconds ~smoke ~traced ~json:!json ~trace_file:!trace_file
      | None ->
          let ok = run_all ~seed ~seconds ~smoke ~traced ~json:!json ~trace_file:!trace_file in
          if ok then print_endline "e2e: every workload correct"
          else prerr_endline "e2e: FAILED";
          exit (if ok then 0 else 1))

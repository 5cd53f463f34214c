(* The four workloads.  Each sets up several times (the median is
   [setup_s]), measures a fixed number of passes, checks every output,
   and returns its metrics.  A traced run alternates untraced and traced
   passes: the per-layer numbers come from the traced ones, the tracing
   overhead from comparing the two. *)

module Fix = Escape.Fixpoint
module T = Optimize.Transform
module Vm = Backend.Vm
module M = Runtime.Machine
module Stats = Runtime.Stats
module J = Nml.Json

type cfg = { seed : int; seconds : float; smoke : bool; traced : bool }

(* ---- bookkeeping ------------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

let check ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    if !failed <= 10 then Printf.eprintf "e2e: FAILED: %s\n%!" what
  end

let timed f =
  let t0 = Trace.now_ns () in
  let r = f () in
  (r, Trace.now_ns () - t0)

let ms ns = float_of_int ns /. 1e6

(* Sets up [reps] times and keeps the last; the median time is
   [setup_s].  [release] frees an instance that is not kept. *)
let setups cfg ?(release = ignore) f =
  let reps = if cfg.smoke then 1 else 3 in
  let rec go i times =
    Trace.enabled := cfg.traced;
    let x, ns = timed (fun () -> Trace.span "setup" f) in
    Trace.enabled := false;
    let times = (float_of_int ns /. 1e9) :: times in
    if i + 1 >= reps then (x, Metrics.median times)
    else begin
      release x;
      go (i + 1) times
    end
  in
  go 0 []

(* Latencies in ms, each tagged with whether its pass was traced. *)
type measured = { ops : (bool * float) list; passes : (bool * float) list }

let untraced l = List.filter_map (fun (t, v) -> if t then None else Some v) l
let traced_only l = List.filter_map (fun (t, v) -> if t then Some v else None) l

(* A fixed number of passes, so every commit measures the same work:
   [cfg.seconds] over the workload's nominal pass time on the reference
   machine, and at least enough for [min_samples] operations.
   [pass ~traced] returns the latency of each operation it timed. *)
let run_passes cfg ~nominal_s ~min_samples ~ops_per_pass pass =
  let n =
    if cfg.smoke then 1
    else
      max
        (int_of_float (Float.ceil (cfg.seconds /. nominal_s)))
        ((min_samples + ops_per_pass - 1) / ops_per_pass)
  in
  let n = if cfg.traced then max 2 n else n in
  let ops = ref [] and passes = ref [] in
  for i = 0 to n - 1 do
    let traced = cfg.traced && i mod 2 = 1 in
    Trace.enabled := traced;
    let lat = Trace.span "pass" (fun () -> pass ~traced) in
    Trace.enabled := false;
    ops := List.rev_append (List.map (fun l -> (traced, l)) lat) !ops;
    passes := (traced, List.fold_left ( +. ) 0. lat) :: !passes
  done;
  { ops = !ops; passes = !passes }

(* The end-to-end metrics every workload reports. *)
let end_to_end ~setup_s m =
  let ops = untraced m.ops in
  [
    ("setup_s", setup_s);
    ("pass_ms", Metrics.median (untraced m.passes));
    ("latency_ms_p50", Metrics.percentile ops 0.5);
    ("latency_ms_p90", Metrics.percentile ops 0.9);
  ]

(* ---- the compile path ------------------------------------------------------------ *)

type compiled = { ir : Runtime.Ir.expr; code : Vm.code; counts : (string * int) list }

(* Source to bytecode: parse, monomorphize, infer, solve (a fresh solver
   per program), optimize, emit. *)
let compile options src =
  Trace.span "compile" @@ fun () ->
  let s = Trace.span "nml.parse" (fun () -> Nml.Surface.of_string src) in
  let mono = Trace.span "nml.mono" (fun () -> Nml.Mono.run s) in
  let prog = mono.Nml.Mono.program in
  let typed = Trace.span "nml.infer" (fun () -> Nml.Infer.infer_program prog) in
  let fix =
    Trace.span "fixpoint" (fun () ->
        let t = Fix.make typed in
        ignore (Fix.main_value t);
        t)
  in
  let fs = Fix.stats fix in
  let r = Trace.span "optimize" (fun () -> T.optimize_with fix options prog) in
  let code = Trace.span "backend.compile" (fun () -> Vm.compile r.T.ir) in
  let rep = Vm.report code in
  let reuse f = match r.T.reuse_report with Some rr -> f rr | None -> 0 in
  let annotations = function Some l -> List.length l | None -> 0 in
  {
    ir = r.T.ir;
    code;
    counts =
      [
        ("nml.mono_instances", List.length mono.Nml.Mono.instances);
        ("fixpoint.evaluations", fs.Fix.stats_evaluations);
        ("fixpoint.iterations", fs.Fix.stats_iterations);
        ("fixpoint.sccs", fs.Fix.stats_sccs);
        ("fixpoint.largest_scc", fs.Fix.stats_largest_scc);
        ("fixpoint.memo_hits", fs.Fix.stats_cache_hits);
        ("fixpoint.memo_misses", fs.Fix.stats_cache_misses);
        ("optimize.fixpoint_evaluations", Fix.evaluations fix - fs.Fix.stats_evaluations);
        ("optimize.calls_redirected", reuse (fun rr -> rr.Optimize.Reuse.substituted_calls));
        ("optimize.alias_licensed", reuse (fun rr -> rr.Optimize.Reuse.alias_licensed));
        ( "optimize.stack_annotations",
          annotations
            (Option.map (fun s -> s.Optimize.Stackalloc.annotations) r.T.stack_report) );
        ( "optimize.block_annotations",
          annotations
            (Option.map (fun b -> b.Optimize.Blockalloc.annotations) r.T.block_report) );
        ("optimize.pretenure_sites", r.T.pretenure_sites);
        ("backend.functions", rep.Backend.Closure.functions);
        ("backend.known_call_sites", rep.Backend.Closure.known_call_sites);
        ("backend.generic_app_sites", rep.Backend.Closure.generic_app_sites);
        ("backend.closure_sites", rep.Backend.Closure.closure_sites);
      ];
  }

(* The ANF and closure-conversion stages on their own, for the trace:
   reported beside [backend.compile], which contains them. *)
let lower_separately ir =
  let anf = Trace.span "backend.anf" (fun () -> Backend.Anf.lower ir) in
  ignore (Trace.span "backend.closure" (fun () -> Backend.Closure.convert anf))

(* Sums per-program counts; maxima stay maxima. *)
let total_counts per_program =
  let add acc (k, v) =
    let old = Option.value ~default:0 (List.assoc_opt k acc) in
    let v =
      if k = "fixpoint.largest_scc" || k = "heap.peak_live_cells" then max old v else old + v
    in
    (k, v) :: List.remove_assoc k acc
  in
  List.rev (List.fold_left (List.fold_left add) [] per_program)

(* ---- execution --------------------------------------------------------------------- *)

(* [nmlc run -O --policy generational]: a 2048-cell generational heap
   that may grow. *)
let heap = Runtime.Heap.generational

let run_vm code =
  Trace.span "run" @@ fun () ->
  let m = Trace.span "vm.create" (fun () -> Vm.create ~heap_size:2048 ~config:heap ()) in
  let v = Trace.span "vm.eval" (fun () -> Vm.eval m code) in
  let r = Trace.span "vm.read_value" (fun () -> Vm.read_value m v) in
  (r, Vm.stats m)

let run_machine ir =
  Trace.span "interp" @@ fun () ->
  let m = M.create ~heap_size:2048 ~config:heap () in
  let w = Trace.span "machine.eval" (fun () -> M.eval m ir) in
  (M.read_value m w, M.stats m)

(* The storage decisions both backends must make identically.  Collection
   counters are left out: the VM's registers and the machine's
   environments are different root sets, so on a program that collects
   they mark and promote different amounts. *)
let placement (s : Stats.t) =
  Stats.
    [
      s.heap_allocs; s.arena_allocs; s.dcons_reuses; s.arena_freed; s.pretenured;
      s.regions_reclaimed;
    ]

let pauses (s : Stats.t) = Array.to_list (Array.sub s.Stats.pause_ns 0 s.Stats.pauses)

let exec_counts (s : Stats.t) =
  [
    ("heap.allocs", s.Stats.heap_allocs);
    ("heap.gc_work", Stats.gc_work s);
    ("heap.peak_live_cells", s.Stats.peak_live);
    ("heap.gc_runs", s.Stats.gc_runs);
    ("heap.minor_gcs", s.Stats.minor_gcs);
    ("heap.major_gcs", s.Stats.major_gcs);
    ("heap.promoted", s.Stats.promoted);
    ("heap.pretenured", s.Stats.pretenured);
    ("heap.remembered", s.Stats.remembered);
    ("heap.marked", s.Stats.marked);
    ("heap.swept", s.Stats.swept);
    ("heap.dcons_reuses", s.Stats.dcons_reuses);
    ("heap.arena_allocs", s.Stats.arena_allocs);
    ("heap.regions_reclaimed", s.Stats.regions_reclaimed);
    ("vm.steps", s.Stats.steps);
  ]

let attempt name f =
  match f () with
  | r -> Some r
  | exception e ->
      check false (name ^ ": " ^ Printexc.to_string e);
      None

(* Runs [(name, compiled, reference value)] programs on the VM, then on
   the machine, and checks both against the references.  The VM runs go
   first so that their times never include collecting the machine's
   garbage.  Returns, per program that ran on both, the two latencies and
   the two counter sets. *)
let execute programs =
  let all run = List.map (fun (name, c, _) -> attempt name (fun () -> timed (fun () -> run c))) programs in
  let vm = all (fun c -> run_vm c.code) in
  let machine = all (fun c -> run_machine c.ir) in
  List.concat
    (List.map2
       (fun (name, _, expect) -> function
         | Some ((v, vs), vm_ns), Some ((w, mst), machine_ns) ->
             check (Nml.Eval.equal_value expect v) (name ^ ": VM result differs from Nml.Eval");
             check (Nml.Eval.equal_value expect w)
               (name ^ ": machine result differs from Nml.Eval");
             check (placement vs = placement mst)
               (name ^ ": VM and machine allocation counters differ");
             [ (ms vm_ns, ms machine_ns, vs, mst) ]
         | _ -> [])
       programs (List.combine vm machine))

(* ---- per-layer metrics from the trace ---------------------------------------------- *)

(* Milliseconds spent in spans called [name] inside phases called
   [root], per phase. *)
let per_root spans root =
  let root_of = Trace.roots spans in
  let phases =
    List.length (List.filter (fun s -> s.Trace.parent < 0 && s.Trace.name = root) spans)
  in
  fun name ->
    if phases = 0 then 0.
    else
      List.fold_left
        (fun a s ->
          if s.Trace.name = name && (root_of s).Trace.name = root then
            a +. ms (Trace.duration s)
          else a)
        0. spans
      /. float_of_int phases

let ratio a b = if a +. b = 0. then 0. else a /. (a +. b)
let floats = List.map (fun (k, v) -> (k, float_of_int v))
let count counts k = float_of_int (Option.value ~default:0 (List.assoc_opt k counts))

(* [counts]: the compile counts of one phase. *)
let compile_layers spans ~root counts =
  let t = per_root spans root and c = count counts in
  [
    ("nml.parse_ms", t "nml.parse");
    ("nml.mono_ms", t "nml.mono");
    ("nml.infer_ms", t "nml.infer");
    ("fixpoint.ms", t "fixpoint");
    ("fixpoint.memo_hit_ratio", ratio (c "fixpoint.memo_hits") (c "fixpoint.memo_misses"));
    ("optimize.ms", t "optimize");
    ("backend.compile_ms", t "backend.compile");
    ("backend.anf_ms", t "backend.anf");
    ("backend.closure_ms", t "backend.closure");
    ( "backend.known_call_ratio",
      ratio (c "backend.known_call_sites") (c "backend.generic_app_sites") );
  ]
  @ floats counts

(* [vm_stats], [machine_stats]: every execution in the [phases] phases
   called [root]; [counts]: the execution counts of one phase. *)
let exec_layers spans ~root ~phases ~vm_stats ~machine_stats counts =
  let t = per_root spans root in
  let collector l =
    List.fold_left (fun a s -> a +. List.fold_left ( +. ) 0. (pauses s)) 0. l
    /. float_of_int (max 1 phases) /. 1e6
  in
  let eval = t "vm.eval" and gc = collector vm_stats in
  [
    ("vm.eval_ms", eval);
    ("vm.mutator_ms", eval -. gc);
    ("vm.read_value_ms", t "vm.read_value");
    ("vm.steps_per_us", if eval = 0. then 0. else count counts "vm.steps" /. (eval *. 1e3));
    ("heap.collector_ms", gc);
    ( "heap.pause_ms_max",
      List.fold_left (fun a s -> List.fold_left Float.max a (pauses s)) 0. vm_stats /. 1e6 );
    ("machine.eval_ms", t "machine.eval");
    ("machine.collector_ms", collector machine_stats);
  ]
  @ floats counts

(* Self times of [children] directly under [parent] spans must sum to
   the parents' total within 5 %. *)
let self_check spans ~parent ~children =
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.Trace.id s) spans;
  let total =
    List.fold_left
      (fun a s -> if s.Trace.name = parent then a + Trace.duration s else a)
      0 spans
  in
  let sum =
    List.fold_left
      (fun a (s, self) ->
        match Hashtbl.find_opt by_id s.Trace.parent with
        | Some p when p.Trace.name = parent && List.mem s.Trace.name children -> a + self
        | _ -> a)
      0 (Trace.self_times spans)
  in
  if total > 0 then begin
    let share = float_of_int sum /. float_of_int total in
    Printf.printf "self-time check: %s = %.3f ms, %s self = %.3f ms (%.1f %%)\n" parent
      (ms total) (String.concat "+" children) (ms sum) (100. *. share);
    check (Float.abs (share -. 1.) <= 0.05)
      (Printf.sprintf "self times under %s sum to %.1f %% of it" parent (100. *. share))
  end

(* The per-layer table, the self-time checks and the tracing overhead. *)
let trace_report spans m =
  Format.printf "%a" Trace.pp_table spans;
  self_check spans ~parent:"compile"
    ~children:[ "nml.parse"; "nml.mono"; "nml.infer"; "fixpoint"; "optimize"; "backend.compile" ];
  self_check spans ~parent:"run" ~children:[ "vm.create"; "vm.eval"; "vm.read_value" ];
  let off = Metrics.median (untraced m.passes) and on = Metrics.median (traced_only m.passes) in
  Printf.printf "tracing overhead: pass %.3f ms traced vs %.3f ms untraced (%+.1f %%)\n" on off
    (100. *. (on -. off) /. off)

let share what part whole =
  if whole > 0. then Printf.printf "%s: %.1f %%\n" what (100. *. part /. whole)

(* ---- compile-corpus ------------------------------------------------------------------- *)

let compile_corpus cfg =
  let corpus, setup_s =
    setups cfg (fun () ->
        let rng = Random.State.make [| cfg.seed |] in
        let corpus =
          Gen.compile_corpus ~smoke:cfg.smoke rng
            ~examples:(Gen.examples (Filename.concat "examples" "programs"))
        in
        (* warm-up pass *)
        List.iter (fun (_, src) -> ignore (compile T.all src)) corpus;
        corpus)
  in
  let first = Hashtbl.create 64 and pass_counts = ref [] in
  let m =
    run_passes cfg ~nominal_s:0.5 ~min_samples:(Metrics.samples_for 0.9)
      ~ops_per_pass:(List.length corpus) (fun ~traced ->
        let timed_compiles =
          List.filter_map
            (fun (name, src) ->
              Option.map
                (fun (c, ns) ->
                  if traced then lower_separately c.ir;
                  if not (Hashtbl.mem first name) then Hashtbl.replace first name c;
                  check
                    ((Hashtbl.find first name).counts = c.counts)
                    (name ^ ": solver and optimizer counts differ between passes");
                  (c, ms ns))
                (attempt name (fun () -> timed (fun () -> compile T.all src))))
            corpus
        in
        if traced then pass_counts := total_counts (List.map (fun (c, _) -> c.counts) timed_compiles);
        List.map snd timed_compiles)
  in
  (* the oracle: every compiled program once on the VM and the machine,
     against the reference interpreter *)
  Trace.enabled := cfg.traced;
  let executions =
    Trace.span "oracle" (fun () ->
        execute
          (List.filter_map
             (fun (name, src) ->
               Option.bind (Hashtbl.find_opt first name) (fun c ->
                   attempt name (fun () ->
                       (name, c, Nml.Eval.run (Nml.Surface.of_string src)))))
             corpus))
    |> List.map (fun (_, _, vs, mst) -> (vs, mst))
  in
  Trace.enabled := false;
  if cfg.traced then begin
    let spans = !Trace.spans in
    trace_report spans m;
    let vm_stats = List.map fst executions in
    let layers =
      compile_layers spans ~root:"pass" !pass_counts
      @ exec_layers spans ~root:"oracle" ~phases:1 ~vm_stats
          ~machine_stats:(List.map snd executions)
          (total_counts (List.map exec_counts vm_stats))
    in
    share "fixpoint share of compile time" (List.assoc "fixpoint.ms" layers)
      (per_root spans "pass" "compile");
    layers
  end
  else end_to_end ~setup_s m

(* ---- run-alloc and run-reuse ------------------------------------------------------------ *)

type program = { name : string; c : compiled; expect : Nml.Eval.value }

let run_options = { T.all with T.pretenure = true }

let run_workload gen cfg =
  let programs, setup_s =
    setups cfg (fun () ->
        let rng = Random.State.make [| cfg.seed |] in
        let programs =
          List.map
            (fun (name, src) ->
              let c = compile run_options src in
              if !Trace.enabled then lower_separately c.ir;
              { name; c; expect = Nml.Eval.run (Nml.Surface.of_string src) })
            (gen ~smoke:cfg.smoke rng)
        in
        (* warm-up pass *)
        List.iter
          (fun p ->
            ignore (run_vm p.c.code);
            ignore (run_machine p.c.ir))
          programs;
        programs)
  in
  let interp = ref [] and first_counts = ref None in
  let traced_stats = ref [] and traced_passes = ref 0 in
  let m =
    run_passes cfg ~nominal_s:0.7 ~min_samples:(Metrics.samples_for 0.9)
      ~ops_per_pass:(List.length programs) (fun ~traced ->
        (* untimed, so that no VM run pays for the garbage of an earlier
           pass's machine runs *)
        Gc.full_major ();
        let runs = execute (List.map (fun p -> (p.name, p.c, p.expect)) programs) in
        let counts = total_counts (List.map (fun (_, _, vs, _) -> exec_counts vs) runs) in
        (match !first_counts with
        | None -> first_counts := Some counts
        | Some c0 -> check (c0 = counts) "storage counters differ between passes");
        interp := List.map (fun (_, t, _, _) -> (traced, t)) runs @ !interp;
        if traced then begin
          incr traced_passes;
          traced_stats := List.map (fun (_, _, vs, mst) -> (vs, mst)) runs @ !traced_stats
        end;
        List.map (fun (t, _, _, _) -> t) runs)
  in
  let counts = Option.value ~default:[] !first_counts in
  if cfg.traced then begin
    let spans = !Trace.spans in
    trace_report spans m;
    let layers =
      compile_layers spans ~root:"setup"
        (total_counts (List.map (fun p -> p.c.counts) programs))
      @ exec_layers spans ~root:"pass" ~phases:!traced_passes
          ~vm_stats:(List.map fst !traced_stats) ~machine_stats:(List.map snd !traced_stats)
          counts
    in
    share "collector share of vm.eval" (List.assoc "heap.collector_ms" layers)
      (List.assoc "vm.eval_ms" layers);
    layers
  end
  else
    end_to_end ~setup_s m
    @ [
        ("interp_ms_p50", Metrics.percentile (untraced !interp) 0.5);
        ("heap_allocs", count counts "heap.allocs");
        ("gc_work", count counts "heap.gc_work");
        ("peak_live_cells", count counts "heap.peak_live_cells");
      ]

(* ---- serve-edit ---------------------------------------------------------------------------- *)

let scratch = ".bench_e2e"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

type server = { fd : Unix.file_descr; stop : unit -> unit }

(* An in-process server (one worker domain, in-memory write-back store)
   on a Unix socket, and one persistent client connection to it. *)
let start_server dir =
  let sock = Filename.concat dir "s.sock" in
  let store =
    Cache.Store.create ~memory:true ~write_back:true (Filename.concat dir "cache")
  in
  let stop =
    Serve.Server.spawn
      {
        (Serve.Server.default_config (Serve.Server.Socket sock)) with
        Serve.Server.jobs = 1;
        store = Some store;
        handle_signals = false;
        quiet = true;
      }
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let deadline = Unix.gettimeofday () +. 10. in
  let rec connect () =
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
        Thread.delay 0.005;
        connect ()
  in
  connect ();
  {
    fd;
    stop =
      (fun () ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        stop ());
  }

type reply = { code : int; output : string; evaluations : int; hits : int; misses : int }

let analyze server src =
  let payload =
    J.to_string
      (J.Obj
         [
           ("id", J.int 1);
           ("method", J.Str "analyze");
           ("params", J.Obj [ ("source", J.Str src) ]);
         ])
  in
  if not (Serve.Frame.write server.fd payload) then failwith "server gone";
  match Serve.Frame.read server.fd with
  | Error e -> failwith (Format.asprintf "no response: %a" Serve.Frame.pp_error e)
  | Ok resp -> (
      match J.member "result" (J.parse resp) with
      | None -> failwith ("error response: " ^ resp)
      | Some r ->
          let int k = match J.member k r with Some (J.Num f) -> int_of_float f | _ -> -1 in
          {
            code = int "code";
            output = (match J.member "output" r with Some (J.Str s) -> s | _ -> "");
            evaluations = int "evaluations";
            hits = int "scc_hits";
            misses = int "scc_misses";
          })

type request = {
  file : int;
  version : int;
  edit : bool;
  traced : bool;
  rtt_ms : float;
  reply : reply;
}

let serve_edit cfg =
  let dir = Filename.concat scratch (string_of_int (Unix.getpid ())) in
  (try Sys.mkdir scratch 0o755 with Sys_error _ -> ());
  Fun.protect ~finally:(fun () ->
      rm_rf dir;
      try Sys.rmdir scratch with Sys_error _ -> ())
  @@ fun () ->
  let rng = Random.State.make [| cfg.seed |] in
  let files = Array.of_list (Gen.serve_files ~smoke:cfg.smoke rng) in
  let source i version = Gen.serve_source files.(i) ~version in
  (* a round: every file edited once and requested warm four times, in
     a seeded order, so 20 % of the requests follow an edit *)
  let round =
    Gen.shuffle rng
      (List.concat
         (List.init (Array.length files) (fun i ->
              [ (i, true); (i, false); (i, false); (i, false); (i, false) ])))
  in
  let instance = ref 0 in
  let server, setup_s =
    setups cfg ~release:(fun s -> s.stop ()) (fun () ->
        incr instance;
        let sub = Filename.concat dir (string_of_int !instance) in
        (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
        Sys.mkdir sub 0o755;
        let s = start_server sub in
        (* cache fill, then one warm request per file *)
        for _ = 1 to 2 do
          Array.iteri (fun i _ -> ignore (analyze s (source i 0))) files
        done;
        s)
  in
  let versions = Array.make (Array.length files) 0 in
  let log = ref [] in
  let m =
    Fun.protect ~finally:server.stop @@ fun () ->
    run_passes cfg ~nominal_s:0.35 ~min_samples:(Metrics.samples_for 0.99)
      ~ops_per_pass:(List.length round) (fun ~traced ->
        List.filter_map
          (fun (i, edit) ->
            if edit then versions.(i) <- versions.(i) + 1;
            let version = versions.(i) in
            let src = source i version in
            match timed (fun () -> Trace.span "serve.rtt" (fun () -> analyze server src)) with
            | reply, ns ->
                log := { file = i; version; edit; traced; rtt_ms = ms ns; reply } :: !log;
                Some (ms ns)
            | exception e ->
                check false ("analyze: " ^ Printexc.to_string e);
                None)
          round)
  in
  let log = List.rev !log in
  (* the oracle: every reply equals an uncached analysis of the same
     file version *)
  let expected = Hashtbl.create 256 in
  List.iter
    (fun r ->
      let key = (r.file, r.version) in
      if not (Hashtbl.mem expected key) then
        Hashtbl.replace expected key
          (Cache.Batch.analyze_source ~path:"<request>" (source r.file r.version))
            .Cache.Batch.output;
      check
        (r.reply.code = 0 && String.equal r.reply.output (Hashtbl.find expected key))
        (Printf.sprintf "file %d version %d: reply differs from an uncached analysis" r.file
           r.version))
    log;
  if cfg.traced then begin
    (* replay the same requests straight into the cache layer, over a
       private store filled the same way *)
    let store =
      Cache.Store.create ~memory:true ~write_back:true (Filename.concat dir "replay")
    in
    let analyze_source src = Cache.Batch.analyze_source ~store ~path:"<request>" src in
    Array.iteri (fun i _ -> ignore (analyze_source (source i 0))) files;
    Trace.enabled := true;
    let analyze_ms =
      Trace.span "replay" (fun () ->
          List.map
            (fun r ->
              ms
                (snd
                   (timed (fun () ->
                        Trace.span "cache.analyze" (fun () ->
                            analyze_source (source r.file r.version))))))
            log)
    in
    Trace.enabled := false;
    trace_report !Trace.spans m;
    let traced = List.filter (fun r -> r.traced) log in
    let rounds = float_of_int (List.length (traced_only m.passes)) in
    let per_round f =
      float_of_int (List.fold_left (fun a r -> a + f r.reply) 0 traced) /. rounds
    in
    let hits = per_round (fun r -> r.hits) and misses = per_round (fun r -> r.misses) in
    let paired =
      List.filter_map
        (fun (r, a) -> if r.traced then Some (r.rtt_ms, a) else None)
        (List.combine log analyze_ms)
    in
    [
      ("cache.scc_hits", hits);
      ("cache.scc_misses", misses);
      ("cache.hit_ratio", ratio hits misses);
      ("cache.evaluations", per_round (fun r -> r.evaluations));
      ("cache.analyze_ms", Metrics.median (List.map snd paired));
      ("serve.rtt_ms", Metrics.median (List.map fst paired));
      ("serve.overhead_ms", Metrics.median (List.map (fun (rtt, a) -> rtt -. a) paired));
    ]
  end
  else
    let rtts p = List.filter_map (fun r -> if p r && not r.traced then Some r.rtt_ms else None) log in
    end_to_end ~setup_s m
    @ [
        ("serve_ms_p99", Metrics.percentile (rtts (fun _ -> true)) 0.99);
        ("serve_edit_ms_p50", Metrics.percentile (rtts (fun r -> r.edit)) 0.5);
      ]

(* ---- registry ------------------------------------------------------------------------------- *)

let all =
  [
    ("compile-corpus", compile_corpus);
    ("run-alloc", run_workload Gen.run_alloc);
    ("run-reuse", run_workload Gen.run_reuse);
    ("serve-edit", serve_edit);
  ]

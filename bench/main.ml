(* Benchmark harness: regenerates every figure and table of the paper's
   evaluation material (the worked appendix and the claimed storage
   optimizations), plus the cost and ablation studies DESIGN.md calls
   out.  One experiment per table; run all with

     dune exec bench/main.exe

   or a subset with  dune exec bench/main.exe -- T1 T4 F1.  Experiments
   that write records (S1..S6, L1, E1, H1/H2, V1/V2) add --json FILE and
   --smoke; --all regenerates and validates every committed BENCH_*.json
   artifact, --validate FILE checks one, and --gate [FILE...] re-measures
   their deterministic headline counts.  EXPERIMENTS.md records
   paper-vs-measured for each experiment.

   Adding an experiment is one entry of the table [experiments] at the
   end of this file: a paper table is a printing function; a recorded
   experiment is a [spec] -- its points and [measure], the fields its
   records carry, its invariants and, optionally, what the gate
   re-derives.  Validation, the gate, the history and the artifact map
   all read the table. *)

module An = Escape.Analysis
module B = Escape.Besc
module Fix = Escape.Fixpoint
module Sh = Escape.Sharing
module T = Optimize.Transform
module M = Runtime.Machine
module Stats = Runtime.Stats
module Ex = Nml.Examples
module Surface = Nml.Surface
module Ty = Nml.Ty

(* ---- small infrastructure -------------------------------------------------- *)

let section id title =
  Printf.printf "\n================ %s: %s ================\n" id title

let print_table header rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let print_row cells =
    List.iteri (fun i c -> Printf.printf "%-*s  " (List.nth widths i) c) cells;
    print_newline ()
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let smoke = ref false

(* Off while the gate re-measures: it compares only deterministic
   counts, so the repeated-run wall estimates are skipped. *)
let timed = ref true

(* Wall time per run (nanoseconds) via bechamel's OLS estimate; 0 when
   not [timed]. *)
let measure_ns name fn =
  if not !timed then 0. else
  let open Bechamel in
  let test = Test.make ~name (Staged.stage fn) in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
  let res =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  match Hashtbl.fold (fun _ v acc -> v :: acc) res [] with
  | [ v ] -> ( match Analyze.OLS.estimates v with Some [ e ] -> e | _ -> Float.nan)
  | _ -> Float.nan

let ms ns = Printf.sprintf "%.3f" (ns /. 1e6)
let us ns = Printf.sprintf "%.1f" (ns /. 1e3)

(* Deterministic pseudo-random integers (no wall-clock seeds: bench output
   is reproducible). *)
let lcg_list ~seed n =
  let state = ref seed in
  List.init n (fun _ ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      !state mod 1000)

let int_list_src xs = "[" ^ String.concat ", " (List.map string_of_int xs) ^ "]"

let run_machine ?(heap = 4096) ir =
  let m = M.create ~heap_size:heap ~check_arenas:true () in
  let w = M.eval m ir in
  ignore (M.read_value m w);
  M.stats m

let optimized options surface = (T.optimize ~options (Nml.Infer.infer_program surface)).T.ir

(* The T4-T6 storage workloads, run on the machine by T4-T6 and on the
   VM by V2: (workload, optimizer options, heap, source of size n). *)
let storage_workloads =
  [
    ( "t4-ps",
      { T.none with T.reuse = true },
      1024,
      fun n ->
        Ex.wrap
          [ Ex.append_def; Ex.split_def; Ex.ps_def ]
          ("ps " ^ int_list_src (lcg_list ~seed:42 n)) );
    ( "t4-rev",
      { T.none with T.reuse = true },
      1024,
      fun n ->
        Ex.wrap [ Ex.append_def; Ex.rev_def ]
          ("rev " ^ int_list_src (lcg_list ~seed:7 n)) );
    ( "t5-map-pair",
      { T.none with T.stack = true },
      256,
      fun n ->
        let pairs =
          List.init n (fun i -> Printf.sprintf "[%d, %d]" (2 * i) ((2 * i) + 1))
        in
        Ex.wrap [ Ex.map_def; Ex.pair_def ]
          (Printf.sprintf "map pair [%s]" (String.concat ", " pairs)) );
    ( "t6-ps-create",
      { T.none with T.block = true },
      512,
      fun n ->
        Ex.wrap
          [ Ex.append_def; Ex.split_def; Ex.ps_def; Ex.create_list_def ]
          (Printf.sprintf "ps (create_list %d)" n) );
  ]

let storage workload = List.find (fun (w, _, _, _) -> w = workload) storage_workloads

(* A storage workload on the machine: per size, one row of
   [cells n s0 s1 t0 t1] from the unoptimized and the optimized
   program's counters and wall times. *)
let storage_table workload sizes header cells =
  let _, options, heap, mk_src = storage workload in
  print_table header
    (List.map
       (fun n ->
         let surface = Surface.of_string (mk_src n) in
         let base_ir = Runtime.Ir.of_program surface in
         let opt_ir = optimized options surface in
         let s0 = run_machine ~heap base_ir in
         let s1 = run_machine ~heap opt_ir in
         let t0 = measure_ns "base" (fun () -> run_machine ~heap base_ir) in
         let t1 = measure_ns "opt" (fun () -> run_machine ~heap opt_ir) in
         cells n s0 s1 t0 t1)
       sizes)

(* ---- F1: Figure 1, spines of a list ---------------------------------------- *)

let f1 () =
  section "F1" "Figure 1 -- spines of a list";
  let v = Nml.Eval.run (Surface.of_string "[[1,2],[3,4],[5,6]]") in
  Format.printf "%a@." Escape.Report.spines_figure v;
  Printf.printf
    "paper: the outer chain is the top 1st / bottom 2nd spine; the element\n\
     chains are the top 2nd / bottom 1st spines.\n"

(* ---- T1: appendix A.1, global escape analysis ------------------------------- *)

let t1 () =
  section "T1" "Appendix A.1 -- global escape tests for APPEND, SPLIT, PS";
  let t = Fix.of_source Ex.partition_sort_program in
  let expected =
    [
      ("append", [ "<1,0>"; "<1,1>" ]);
      ("split", [ "<0,0>"; "<1,0>"; "<1,1>"; "<1,1>" ]);
      ("ps", [ "<1,0>" ]);
    ]
  in
  let rows =
    List.concat_map
      (fun (name, exp) ->
        List.mapi
          (fun i e ->
            let v = An.global t name ~arg:(i + 1) in
            let got = B.to_string v.An.esc in
            [
              Printf.sprintf "G(%s, %d)" name (i + 1);
              e;
              got;
              string_of_int (An.non_escaping_top_spines v);
              (if String.equal e got then "ok" else "MISMATCH");
            ])
          exp)
      expected
  in
  print_table [ "test"; "paper"; "computed"; "kept top spines"; "status" ] rows;
  Printf.printf "fixpoint: %d passes, %d iterations, capped=%b, d=%d\n" (Fix.passes t)
    (Fix.iterations t) (Fix.capped t) (Fix.d t);
  Printf.printf "\nKleene iterates (the appendix's fixpoint table):\n";
  let prog = Nml.Infer.infer_program (Surface.of_string Ex.partition_sort_program) in
  Format.printf "%a@." (Escape.Report.kleene_trace ?max_iters:None) prog

(* ---- T2: introduction, properties 1-3 ---------------------------------------- *)

let t2 () =
  section "T2" "Introduction -- map/pair properties 1-3";
  let t = Fix.of_source Ex.map_pair_program in
  let p1 = An.global t "pair" ~arg:1 in
  let p2f = An.global t "map" ~arg:1 in
  let p2l = An.global t "map" ~arg:2 in
  let p3 =
    An.local t "map"
      [ Nml.Parser.parse "pair"; Nml.Parser.parse "[[1,2],[3,4],[5,6]]" ]
      ~arg:2
  in
  print_table
    [ "property"; "paper"; "computed"; "status" ]
    [
      [
        "1. top spine of pair's parameter";
        "does not escape";
        B.to_string p1.An.esc;
        (if B.equal p1.An.esc (B.one 0) then "ok" else "MISMATCH");
      ];
      [
        "2a. top spine of map's list";
        "does not escape";
        B.to_string p2l.An.esc;
        (if B.equal p2l.An.esc (B.one 0) then "ok" else "MISMATCH");
      ];
      [
        "2b. map's functional argument";
        "does not escape";
        B.to_string p2f.An.esc;
        (if B.equal p2f.An.esc B.zero then "ok" else "MISMATCH");
      ];
      [
        "3. this call's literal (s=2)";
        "top two spines stay";
        Printf.sprintf "%s, keep %d" (B.to_string p3.An.esc)
          (An.non_escaping_top_spines p3);
        (if An.non_escaping_top_spines p3 = 2 then "ok" else "MISMATCH");
      ];
    ]

(* ---- T3: appendix A.2, sharing ------------------------------------------------ *)

let t3 () =
  section "T3" "Appendix A.2 -- sharing derived from escape information";
  let t = Fix.of_source Ex.partition_sort_program in
  let rows =
    List.map
      (fun (name, paper) ->
        let i = Sh.result_unshared t name in
        [
          name;
          paper;
          Printf.sprintf "top %d of %d unshared" i.Sh.unshared_top i.Sh.result_spines;
          (if i.Sh.unshared_top >= 1 then "ok" else "MISMATCH");
        ])
      [
        ("ps", "top spine of result unshared");
        ("split", "top spine of result unshared");
      ]
  in
  print_table [ "function"; "paper"; "computed"; "status" ] rows

(* ---- T4: in-place reuse (A.3.2) ----------------------------------------------- *)

let t4 () =
  section "T4" "A.3.2 -- in-place reuse: PS vs PS'' and REV vs REV'";
  List.iter
    (fun (name, workload, sizes) ->
      Printf.printf "\n%s:\n" name;
      storage_table workload sizes
        [
          "n"; "allocs"; "allocs'"; "reuses"; "gc"; "gc'"; "gc-work"; "gc-work'";
          "ms"; "ms'";
        ]
        (fun n s0 s1 t0 t1 ->
          [
            string_of_int n;
            string_of_int s0.Stats.heap_allocs;
            string_of_int s1.Stats.heap_allocs;
            string_of_int s1.Stats.dcons_reuses;
            string_of_int s0.Stats.gc_runs;
            string_of_int s1.Stats.gc_runs;
            string_of_int (Stats.gc_work s0);
            string_of_int (Stats.gc_work s1);
            ms t0;
            ms t1;
          ]))
    [
      ("partition sort (random list)", "t4-ps", [ 50; 100; 200; 400; 800 ]);
      ("naive reverse", "t4-rev", [ 16; 32; 64; 128; 256 ]);
    ];
  Printf.printf
    "\nexpected shape: allocs' << allocs (spine cells recycled), gc' <= gc.\n"

(* ---- T5: stack allocation (A.3.1) ---------------------------------------------- *)

let t5 () =
  section "T5" "A.3.1 -- stack allocation of non-escaping argument spines";
  storage_table "t5-map-pair" [ 8; 16; 32; 64; 128 ]
    [
      "pairs"; "heap"; "heap'"; "region"; "region-freed"; "gc-work"; "gc-work'";
      "us"; "us'";
    ]
    (fun n s0 s1 t0 t1 ->
      [
        string_of_int n;
        string_of_int s0.Stats.heap_allocs;
        string_of_int s1.Stats.heap_allocs;
        string_of_int s1.Stats.arena_allocs;
        string_of_int s1.Stats.arena_freed;
        string_of_int (Stats.gc_work s0);
        string_of_int (Stats.gc_work s1);
        us t0;
        us t1;
      ]);
  Printf.printf
    "\nexpected shape: both spine levels of the literal move from the heap to\n\
     the region and are freed wholesale; GC work drops accordingly.\n"

(* ---- T6: block allocation/reclamation (A.3.3) ----------------------------------- *)

let t6 () =
  section "T6" "A.3.3 -- block allocation: ps (create_list n)";
  storage_table "t6-ps-create" [ 25; 50; 100; 200; 400 ]
    [ "n"; "heap"; "heap'"; "block"; "block-freed"; "swept"; "swept'"; "ms"; "ms'" ]
    (fun n s0 s1 t0 t1 ->
      [
        string_of_int n;
        string_of_int s0.Stats.heap_allocs;
        string_of_int s1.Stats.heap_allocs;
        string_of_int s1.Stats.arena_allocs;
        string_of_int s1.Stats.arena_freed;
        string_of_int s0.Stats.swept;
        string_of_int s1.Stats.swept;
        ms t0;
        ms t1;
      ]);
  Printf.printf
    "\nexpected shape: the n spine cells of create_list's result live in the\n\
     block and return to the free list wholesale, without being swept\n\
     individually (the mark phase still traverses them while live, exactly\n\
     as the paper's local heap would be).\n"

(* ---- T7: polymorphic invariance (Theorem 1) -------------------------------------- *)

let t7 () =
  section "T7" "Theorem 1 -- polymorphic invariance across monomorphic instances";
  let ilist = Ty.List Ty.Int in
  let iilist = Ty.List ilist in
  let iiilist = Ty.List iilist in
  let blist = Ty.List Ty.Bool in
  let arrow1 a b = Ty.Arrow (a, b) in
  let arrow2 a b c = Ty.Arrow (a, Ty.Arrow (b, c)) in
  let cases =
    [
      ( "append", "append",
        Ex.wrap [ Ex.append_def ] "0",
        1,
        [
          ("int list", arrow2 ilist ilist ilist);
          ("int list list", arrow2 iilist iilist iilist);
          ("int list^3", arrow2 iiilist iiilist iiilist);
          ("bool list", arrow2 blist blist blist);
        ] );
      ( "rev", "rev",
        Ex.rev_program,
        1,
        [ ("int list", arrow1 ilist ilist); ("int list list", arrow1 iilist iilist) ] );
      ( "length", "length",
        Ex.wrap [ Ex.length_def ] "0",
        1,
        [ ("int list", arrow1 ilist Ty.Int); ("int list list", arrow1 iilist Ty.Int) ] );
      ( "map(arg 2)", "map",
        Ex.wrap [ Ex.map_def ] "0",
        2,
        [
          ("int->int, int list", arrow2 (arrow1 Ty.Int Ty.Int) ilist ilist);
          ( "int list->int list, int list list",
            arrow2 (arrow1 ilist ilist) iilist iilist );
        ] );
    ]
  in
  let rows =
    List.concat_map
      (fun (label0, fname, src, arg, insts) ->
        let t = Fix.of_source src in
        let base = ref None in
        List.map
          (fun (label, inst) ->
            let v = An.global ~inst t fname ~arg in
            let keep = An.non_escaping_top_spines v in
            let invariant =
              match !base with
              | None ->
                  base := Some (An.escapes v, keep);
                  "reference"
              | Some (esc0, keep0) ->
                  if An.escapes v = esc0 && ((not esc0) || keep = keep0) then "ok"
                  else "VIOLATION"
            in
            [
              label0;
              label;
              B.to_string v.An.esc;
              string_of_int v.An.spines;
              string_of_int keep;
              invariant;
            ])
          insts)
      cases
  in
  print_table [ "function"; "instance"; "G"; "s_i"; "s_i - k"; "Theorem 1" ] rows

(* ---- T8: analysis cost and the enumeration ablation ------------------------------- *)

let t8 () =
  section "T8" "analysis cost: probe engine vs full enumeration; scaling";

  (* (a) probe vs enumeration on first-order programs *)
  Printf.printf "\n(a) probe engine vs full first-order enumeration:\n";
  let programs =
    [
      ("append", Ex.wrap [ Ex.append_def ] "0");
      ("ps program", Ex.partition_sort_program);
      ("isort", Ex.wrap [ Ex.insert_def; Ex.isort_def ] "0");
      ( "six defs",
        Ex.wrap
          [ Ex.append_def; Ex.split_def; Ex.ps_def; Ex.create_list_def; Ex.length_def;
            Ex.sum_def ]
          "0" );
    ]
  in
  let rows =
    List.map
      (fun (name, src) ->
        let probe_ns =
          measure_ns "probe" (fun () ->
              let t = Fix.of_source src in
              List.iter
                (fun (d, _) -> ignore (An.global_all t d))
                (Surface.of_string src).Surface.defs)
        in
        let enum_ns =
          measure_ns "enum" (fun () -> ignore (Escape.Enumerate.of_source src))
        in
        let e = Escape.Enumerate.of_source src in
        let t = Fix.of_source src in
        let agree =
          List.for_all
            (fun (d, _) ->
              List.for_all
                (fun (v : An.verdict) ->
                  B.equal v.An.esc (Escape.Enumerate.global e d ~arg:v.An.arg))
                (An.global_all t d))
            (Surface.of_string src).Surface.defs
        in
        [
          name;
          ms probe_ns;
          ms enum_ns;
          string_of_int (Escape.Enumerate.entries e);
          string_of_int (Escape.Enumerate.iterations e);
          (if agree then "agree" else "DISAGREE");
        ])
      programs
  in
  print_table
    [ "program"; "probe ms"; "enum ms"; "table entries"; "enum rounds"; "results" ]
    rows;

  (* (b) lattice-height effect: analyzing append at deeper list instances *)
  Printf.printf "\n(b) chain-bound (d) sweep -- append at deeper instances:\n";
  let rec deep k = if k = 0 then Ty.Int else Ty.List (deep (k - 1)) in
  let rows =
    List.map
      (fun k ->
        let inst = Ty.Arrow (deep k, Ty.Arrow (deep k, deep k)) in
        let src = Ex.wrap [ Ex.append_def ] "0" in
        let ns =
          measure_ns "inst" (fun () ->
              let t = Fix.of_source src in
              ignore (An.global ~inst t "append" ~arg:1))
        in
        let t = Fix.of_source src in
        ignore (An.global ~inst t "append" ~arg:1);
        [
          string_of_int k;
          string_of_int (Fix.d t);
          string_of_int (Fix.iterations t);
          ms ns;
        ])
      [ 1; 2; 3; 4; 5; 6 ]
  in
  print_table [ "spine depth"; "d"; "iterations"; "ms" ] rows;

  (* (c) program-size scaling: a chain of k append-like definitions *)
  Printf.printf "\n(c) definition-chain scaling:\n";
  let chain k =
    let defs =
      List.init k (fun i ->
          if i = 0 then "f0 x y = if null x then y else cons (car x) (f0 (cdr x) y)"
          else
            Printf.sprintf
              "f%d x y = if null x then f%d y nil else f%d (cdr x) (cons (car x) y)" i
              (i - 1) (i - 1))
    in
    Ex.wrap defs "0"
  in
  let rows =
    List.map
      (fun k ->
        let src = chain k in
        let ns =
          measure_ns "chain" (fun () ->
              let t = Fix.of_source src in
              ignore (An.global t (Printf.sprintf "f%d" (k - 1)) ~arg:1))
        in
        let t = Fix.of_source src in
        ignore (An.global t (Printf.sprintf "f%d" (k - 1)) ~arg:1);
        [
          string_of_int k;
          string_of_int (Nml.Ast.size (Surface.to_expr (Surface.of_string src)));
          string_of_int (Fix.passes t);
          string_of_int (Fix.iterations t);
          ms ns;
        ])
      [ 2; 4; 8; 16; 32 ]
  in
  print_table [ "defs"; "AST nodes"; "passes"; "iterations"; "ms" ] rows

(* ---- T9: randomized safety audit --------------------------------------------------- *)

let t9 () =
  section "T9" "safety audit: dynamic <= local <= global on random programs";
  let count = 300 in
  let ok = ref 0 in
  let gen = QCheck.Gen.pair Gen.gen_def Gen.gen_input in
  let rand = Random.State.make [| 20260706 |] in
  for _ = 1 to count do
    let def, input = QCheck.Gen.generate1 ~rand gen in
    let src = Ex.wrap [ def ] "0" in
    let prog = Surface.of_string src in
    let input_src = Gen.input_src input in
    let t = Fix.of_source src in
    let g = An.global t "f" ~arg:1 in
    let l = An.local t "f" [ Nml.Parser.parse input_src ] ~arg:1 in
    let ob =
      Escape.Exact.observe_call ~fuel:200000 prog ~fname:"f"
        ~args:[ Nml.Parser.parse input_src ] ~arg:1
    in
    if B.leq ob.Escape.Exact.esc l.An.esc && B.leq l.An.esc g.An.esc then incr ok
  done;
  Printf.printf "random first-order programs checked : %d\n" count;
  Printf.printf "dynamic <= local <= global held for : %d\n" !ok;
  Printf.printf "%s\n"
    (if !ok = count then "SAFE (as the safety theorem of section 3.5 demands)"
     else "UNSOUND RESULTS FOUND")

(* ---- X1: products extension -------------------------------------------------------- *)

let x1 () =
  section "X1" "extension: escape analysis over pairs (tuples)";
  let src =
    Ex.wrap [ Ex.zip_def; Ex.unzip_fsts_def; Ex.unzip_snds_def; Ex.swap_def; Ex.assoc_def ] "0"
  in
  let t = Fix.of_source src in
  let rows =
    List.concat_map
      (fun name ->
        List.concat_map
          (fun (v : An.verdict) ->
            let whole =
              [
                Printf.sprintf "G(%s, %d)" name v.An.arg;
                "(whole)";
                B.to_string v.An.esc;
                string_of_int (An.non_escaping_top_spines v);
              ]
            in
            let comps =
              match An.global_components t name ~arg:v.An.arg with
              | [ ([], _) ] -> []
              | cs ->
                  List.map
                    (fun (path, (cv : An.verdict)) ->
                      [
                        "";
                        Format.asprintf "%a" An.pp_path path;
                        B.to_string cv.An.esc;
                        string_of_int (An.non_escaping_top_spines cv);
                      ])
                    cs
            in
            whole :: comps)
          (An.global_all t name))
      [ "zip"; "fsts"; "snds"; "swap"; "assoc" ]
  in
  print_table [ "test"; "component"; "escape"; "kept top spines" ] rows;
  (* the machine allocates pair cells like cons cells *)
  let run_src = Ex.wrap [ Ex.zip_def ] ("zip " ^ int_list_src (lcg_list ~seed:5 64) ^ " " ^ int_list_src (lcg_list ~seed:9 64)) in
  let s = run_machine (Runtime.Ir.of_program (Surface.of_string run_src)) in
  Printf.printf "\nzip of two 64-lists on the simulator: %d cells (64 pairs + 64 spine + literals)\n"
    s.Stats.heap_allocs

(* ---- X2: trees extension ------------------------------------------------------------ *)

let x2 () =
  section "X2" "extension: escape analysis over binary trees";
  let src =
    Ex.wrap
      [ Ex.tmap_def; Ex.tinsert_def; Ex.tsum_def; Ex.mirror_def; Ex.append_def;
        Ex.flatten_def ]
      "0"
  in
  let t = Fix.of_source src in
  let rows =
    List.concat_map
      (fun name ->
        List.map
          (fun (v : An.verdict) ->
            [
              Printf.sprintf "G(%s, %d)" name v.An.arg;
              B.to_string v.An.esc;
              string_of_int v.An.spines;
              string_of_int (An.non_escaping_top_spines v);
            ])
          (An.global_all t name))
      [ "tmap"; "tinsert"; "tsum"; "mirror"; "flatten" ]
  in
  print_table [ "test"; "escape"; "levels"; "kept top levels" ] rows;
  Printf.printf
    "\nshape: rebuilding traversals (tmap, mirror, flatten) keep their node\n\
     cells reclaimable; BST insert shares subtrees, so the whole tree may\n\
     escape -- the textbook reason persistent structures defeat reuse.\n";
  (* DNODE in-place reuse for mirror over growing BSTs *)
  Printf.printf "\nmirror vs mirror' (DNODE reuse) over a BST of n nodes:\n";
  let reuse_only = { T.none with T.reuse = true } in
  let mk_src n =
    let rec build acc = function
      | [] -> acc
      | v :: rest -> build (Printf.sprintf "(tinsert %d %s)" v acc) rest
    in
    Ex.wrap [ Ex.mirror_def; Ex.tinsert_def ]
      (Printf.sprintf "mirror %s" (build "leaf" (lcg_list ~seed:3 n)))
  in
  let rows =
    List.map
      (fun n ->
        let surface = Surface.of_string (mk_src n) in
        let base_ir = Runtime.Ir.of_program surface in
        let opt_ir = optimized reuse_only surface in
        let s0 = run_machine ~heap:512 base_ir in
        let s1 = run_machine ~heap:512 opt_ir in
        [
          string_of_int n;
          string_of_int s0.Stats.heap_allocs;
          string_of_int s1.Stats.heap_allocs;
          string_of_int s1.Stats.dcons_reuses;
        ])
      [ 8; 16; 32; 64 ]
  in
  print_table [ "n"; "allocs"; "allocs'"; "reuses" ] rows


(* ---- the experiment table: records, shapes, invariants, gates ----------------- *)

(* Machine-checkable benchmark artifact without new dependencies: the
   shared hand-rolled JSON tree lives in [Nml.Json]. *)
module J = Nml.Json

(* One artifact record: its fields in emission order. *)
type record = (string * J.t) list

let num k (r : record) =
  match List.assoc_opt k r with Some (J.Num f) -> f | _ -> Float.nan

let str k (r : record) = match List.assoc_opt k r with Some (J.Str s) -> s | _ -> ""

let text k (r : record) =
  match List.assoc_opt k r with
  | Some (J.Str s) -> s
  | Some (J.Num f) -> Printf.sprintf "%.0f" f
  | Some (J.Bool b) -> string_of_bool b
  | _ -> "-"

let ns wall = J.int (int_of_float wall)

(* The fields a record must carry, by JSON type. *)
type shape = { strs : string list; nums : string list; bools : string list }

let shape ?(bools = []) strs nums = { strs; nums; bools }

(* An experiment that writes records.  [measure] runs one point and
   returns its records without the "experiment" field, which the driver
   prepends.  A run measures every point in order and prints one table
   per workload, a column per required field (wall nanoseconds shown in
   milliseconds), then the invariants and [note].
   [fields] and [invariants] are what [--validate] checks of an
   artifact's records, [gate] what [--gate] measures again. *)
type 'p spec = {
  id : string;
  title : string;
  artifact : string option;  (* the committed file its records belong to *)
  points : unit -> 'p list;
  measure : 'p -> record list;
  fields : string -> shape;  (* by workload *)
  invariants : (string * (record list -> bool)) list;
  note : record list -> string;
  gate : 'p gate option;
}

(* The recorded rows [rows] selects are measured again at [point].
   Each [counters] field may exceed its recorded value by at most 20 %
   (+2, so a recorded 0 stays checkable); each ratio (field, (axis, off,
   on)) between the row whose [axis] is [off] and its twin at [on] must
   keep 80 % of the recorded one (+1 on both sides keeps a zero
   denominator harmless); a [nonzero] total the artifact recorded
   positive must not vanish.  Only deterministic counts are named here,
   never wall clock. *)
and 'p gate = {
  rows : record list -> record list;
  point : record -> 'p;
  counters : string list;
  ratios : (string * (string * string * string)) list;
  nonzero : string list;
}

type experiment = Paper of string * (unit -> unit) | Exp : 'p spec -> experiment

let exp =
  {
    id = "";
    title = "";
    artifact = None;
    points = (fun () -> []);
    measure = (fun _ -> []);
    fields = (fun _ -> shape [] []);
    invariants = [];
    note = (fun _ -> "");
    gate = None;
  }

let gated =
  {
    rows = Fun.id;
    point = (fun _ -> ());
    counters = [];
    ratios = [];
    nonzero = [];
  }

(* ---- invariant vocabulary ---------------------------------------------------------- *)

(* [xs] without repeats, in order of first appearance *)
let uniq xs =
  List.fold_left (fun acc x -> if List.mem x acc then acc else acc @ [ x ]) [] xs

let where k v rs = List.filter (fun r -> String.equal (str k r) v) rs
let sum k rs =
  List.fold_left
    (fun a r -> match List.assoc_opt k r with Some (J.Num f) -> a +. f | _ -> a)
    0. rs

let zero k rs = List.for_all (fun r -> num k r = 0.) rs
let positive k rs = List.for_all (fun r -> num k r > 0.) rs

(* [rs] split by the values of [keys] *)
let group keys rs =
  let key r = List.map (fun k -> text k r) keys in
  List.map
    (fun v -> List.filter (fun r -> key r = v) rs)
    (List.sort_uniq compare (List.map key rs))

(* the rows of [rs] at the smallest ([( < )]) or largest ([( > )]) size
   of their workload *)
let extreme beats rs =
  let beaten r r' =
    str "workload" r' = str "workload" r && beats (num "size" r') (num "size" r)
  in
  List.filter (fun r -> not (List.exists (beaten r) rs)) rs

(* [rs] is non-empty and every group of it satisfies [p] *)
let every_group keys rs p = rs <> [] && List.for_all p (group keys rs)

(* [f] of the rows of [g] whose [k] is [a] and [b]; false unless both exist *)
let pair g k a b f =
  let at v = List.find_opt (fun r -> str k r = v) g in
  match (at a, at b) with Some x, Some y -> f x y | _ -> false

(* a summary cache's warm rerun solves nothing its cold run did not *)
let warm_free cold warm =
  num "evaluations" cold > 0. && num "evaluations" warm = 0. && num "scc_misses" warm = 0.

(* ---- S1/S2: solver stress ------------------------------------------------------- *)

(* Wide program: a chain of n non-recursive wrappers.  Dependency-driven
   solving needs exactly one evaluation per definition. *)
let wide_chain_src n =
  let defs =
    List.init n (fun i ->
        if i = 0 then "w0 x = cons 0 x"
        else Printf.sprintf "w%d x = w%d (cons %d x)" i (i - 1) i)
  in
  Ex.wrap defs (Printf.sprintf "w%d [1, 2]" (n - 1))

(* Deep program: a nest of k self-recursive definitions, each also calling
   its predecessor — every entry sits in a cycle, so this stresses the SCC
   sweep rather than the recursive descent. *)
let rec_chain_src k =
  let defs =
    List.init k (fun i ->
        if i = 0 then "f0 x y = if null x then y else cons (car x) (f0 (cdr x) y)"
        else
          Printf.sprintf
            "f%d x y = if null x then f%d y x else f%d (cdr x) (cons (car x) y)" i
            (i - 1) i)
  in
  Ex.wrap defs "0"

(* the two stress shapes: (workload, source, demanded entry and instance);
   the deep nests are demanded at chain bound d = 3 *)
let stress_shapes =
  let rec deep k = if k = 0 then Ty.Int else Ty.List (deep (k - 1)) in
  [
    ("wide-chain", wide_chain_src, fun n -> (Printf.sprintf "w%d" (n - 1), None));
    ( "deep-recursion",
      rec_chain_src,
      fun k ->
        ( Printf.sprintf "f%d" (k - 1),
          Some (Ty.Arrow (deep 3, Ty.Arrow (deep 3, deep 3))) ) );
  ]

(* One cold-start solver run: every [Fix.of_source] owns a fresh private
   solver state, so each run is cold by construction — solve, snapshot
   the statistics, then time identical runs.  Rows keep
   ["engine": "worklist"]: the committed artifacts also hold rows of a
   retired engine, and the gate finds this one's by the key. *)
let stress workload n =
  let _, src_of, entry = List.find (fun (w, _, _) -> w = workload) stress_shapes in
  let src = src_of n and name, inst = entry n in
  let solve () =
    let t = Fix.of_source ~max_iters:1000 src in
    ignore (Fix.value t name inst);
    t
  in
  let s = Fix.stats (solve ()) in
  let wall = measure_ns "worklist" (fun () -> ignore (solve ())) in
  [
    [
      ("workload", J.Str workload);
      ("size", J.int n);
      ("engine", J.Str "worklist");
      ("entries", J.int s.Fix.stats_entries);
      ("evaluations", J.int s.Fix.stats_evaluations);
      ("passes", J.int s.Fix.stats_passes);
      ("iterations", J.int s.Fix.stats_iterations);
      ("sccs", J.int s.Fix.stats_sccs);
      ("largest_scc", J.int s.Fix.stats_largest_scc);
      ("cache_hits", J.int s.Fix.stats_cache_hits);
      ("cache_misses", J.int s.Fix.stats_cache_misses);
      ("cache_invalidated", J.int s.Fix.stats_cache_invalidated);
      ("dbound", J.int s.Fix.stats_dbound);
      ("capped", J.Bool s.Fix.stats_capped);
      ("wall_ns", ns wall);
    ];
  ]

let stress_exp =
  {
    exp with
    fields =
      (fun _ ->
        shape ~bools:[ "capped" ] [ "workload"; "engine" ]
          [ "size"; "entries"; "evaluations"; "passes"; "iterations"; "sccs";
            "largest_scc"; "cache_hits"; "cache_misses"; "cache_invalidated"; "dbound";
            "wall_ns" ]);
    invariants =
      [
        ( "worklist needs strictly fewer entry evaluations than any round-robin row of its size",
          fun rs ->
            every_group [ "size" ] rs (fun g ->
                where "engine" "round-robin" g = []
                || pair g "engine" "worklist" "round-robin" (fun w r ->
                       num "evaluations" w < num "evaluations" r)) );
      ];
  }

let s1 =
  {
    stress_exp with
    id = "S1";
    title = "solver stress -- wide chain of non-recursive definitions";
    points = (fun () -> if !smoke then [ 6; 12 ] else [ 10; 20; 40; 80 ]);
    measure = stress "wide-chain";
    invariants =
      stress_exp.invariants
      @ [
          (* sizes measured with a round-robin row are history: the
             comparison above covers them *)
          ( "worklist evaluates each definition of the chain once",
            fun rs ->
              every_group [ "size" ] rs (fun g ->
                  where "engine" "round-robin" g <> []
                  || List.for_all
                       (fun w -> num "evaluations" w = num "size" w)
                       (where "engine" "worklist" g)) );
        ];
    gate =
      Some
        {
          gated with
          rows = (fun rs -> extreme ( > ) (where "engine" "worklist" rs));
          point = (fun r -> int_of_float (num "size" r));
          counters = [ "evaluations" ];
        };
  }

let s2 =
  {
    stress_exp with
    id = "S2";
    title = "solver stress -- deep recursion nests at chain bound d = 3";
    points = (fun () -> if !smoke then [ 3 ] else [ 4; 8; 16 ]);
    measure = stress "deep-recursion";
  }

(* ---- S3/S4: batch scaling and the persistent summary cache ------------------------- *)

(* Single-shot wall time (nanoseconds).  Cache experiments mutate the
   store, so the repeated-run OLS estimate of [measure_ns] would time the
   warm path; cold and edited phases are timed once instead. *)
let time_once fn =
  let t0 = Unix.gettimeofday () in
  fn ();
  (Unix.gettimeofday () -. t0) *. 1e9

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* [f] of a fresh private directory, removed afterwards *)
let with_scratch name f =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "nmlc-bench-%s-%d" name (Unix.getpid ()))
  in
  if Sys.file_exists d then rm_rf d;
  Sys.mkdir d 0o755;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let write_file path src =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc src)

let examples_dir = Filename.concat "examples" "programs"

(* the shipped examples, when run from the repository root *)
let example_files () =
  if Sys.file_exists examples_dir && Sys.is_directory examples_dir then
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".nml")
    |> List.sort compare
    |> List.map (Filename.concat examples_dir)
  else []

(* every named program of the soundness harness, written out under [dir] *)
let builtin_files dir =
  List.map
    (fun (name, src) ->
      let path = Filename.concat dir (name ^ ".nml") in
      write_file path src;
      path)
    Check.Harness.builtin_corpus

(* The batch corpus: the soundness harness's programs plus the shipped
   examples. *)
let batch_corpus dir = builtin_files dir @ example_files ()

(* the escape job, as [nmlc batch] runs it *)
let escape = Analyses.Registry.job (Option.get (Analyses.Registry.find "escape"))

(* The cold and warm phases of a summary-cache experiment, as
   (phase, wall, results): the cold run is timed once (a second run
   would be warm), the warm rerun repeatedly. *)
let cold_warm run =
  let cold = ref [] in
  let cold_ns = time_once (fun () -> cold := run ()) in
  let warm = run () in
  let warm_ns = measure_ns "warm" (fun () -> ignore (run ())) in
  (("cold", cold_ns, !cold), ("warm", warm_ns, warm))

let phase_fields ?(findings = false) (phase, wall, (results : Cache.Batch.result list)) =
  let total f = J.int (List.fold_left (fun a r -> a + f r) 0 results) in
  [ ("phase", J.Str phase); ("files", J.int (List.length results)) ]
  @ (if findings then [ ("findings", total (fun r -> r.Cache.Batch.findings)) ] else [])
  @ [
      ("evaluations", total (fun r -> r.Cache.Batch.evaluations));
      ("scc_hits", total (fun r -> r.Cache.Batch.scc_hits));
      ("scc_misses", total (fun r -> r.Cache.Batch.scc_misses));
      ("wall_ns", ns wall);
    ]

let cache_shape strs =
  shape ("workload" :: strs)
    [ "files"; "evaluations"; "scc_hits"; "scc_misses"; "wall_ns" ]

let s3 =
  {
    exp with
    id = "S3";
    title = "batch scaling -- domain pool over the soundness corpus + examples";
    points = (fun () -> [ () ]);
    measure =
      (fun () ->
        let cores = Domain.recommended_domain_count () in
        with_scratch "s3" @@ fun dir ->
        let files = batch_corpus dir in
        List.map
          (fun jobs ->
            let results = Cache.Batch.run ~analyze:escape ~jobs files in
            let count f = List.fold_left (fun a r -> a + f r) 0 results in
            let wall =
              measure_ns
                (Printf.sprintf "jobs%d" jobs)
                (fun () -> ignore (Cache.Batch.run ~analyze:escape ~jobs files))
            in
            [
              ("workload", J.Str "batch-scaling");
              ("jobs", J.int jobs);
              ("files", J.int (List.length files));
              ("cores", J.int cores);
              ("evaluations", J.int (count (fun r -> r.Cache.Batch.evaluations)));
              ("errors", J.int (count (fun r -> Bool.to_int (r.Cache.Batch.code <> 0))));
              ("wall_ns", ns wall);
            ])
          (if !smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ]));
    fields =
      (fun _ ->
        shape [ "workload" ]
          [ "jobs"; "files"; "cores"; "evaluations"; "errors"; "wall_ns" ]);
  }

let s4 =
  {
    exp with
    id = "S4";
    title = "persistent summary cache -- cold, warm, and one-definition edits";
    points = (fun () -> [ () ]);
    measure =
      (fun () ->
        with_scratch "s4" @@ fun dir ->
        let edited_file = Filename.concat dir "zz_edit.nml" in
        let edit_src body =
          Ex.wrap
            [
              Printf.sprintf "callee l = %s" body;
              "reader l = callee (cons (car l) l)";
              "loner l = cons 1 l";
            ]
            "reader [1, 2]"
        in
        write_file edited_file (edit_src "cons (car l) nil");
        let files = batch_corpus dir @ [ edited_file ] in
        let store = Cache.Store.create (Filename.concat dir "cache") in
        let run () = Cache.Batch.run ~analyze:escape ~store ~jobs:1 files in
        let cold, warm = cold_warm run in
        (* edited: one definition's body changes, so only its SCC and the
           readers above it re-solve; everything else still hits *)
        write_file edited_file (edit_src "cons 7 nil");
        let edited = ref [] in
        let edited_ns = time_once (fun () -> edited := run ()) in
        List.map
          (fun phase -> ("workload", J.Str "summary-cache") :: phase_fields phase)
          [ cold; warm; ("edited", edited_ns, !edited) ]);
    fields = (fun _ -> cache_shape [ "phase" ]);
    invariants =
      [
        ( "warm is evaluation-free, cold is not, and an edit costs less than cold",
          fun rs ->
            let phase p = where "phase" p rs in
            phase "warm" <> []
            && zero "evaluations" (phase "warm")
            && positive "evaluations" (phase "cold")
            && List.exists
                 (fun e ->
                   List.exists
                     (fun c -> num "evaluations" e < num "evaluations" c)
                     (phase "cold"))
                 (phase "edited") );
      ];
  }

(* ---- S5: the analysis framework -- per-analysis caching ----------------------------- *)

(* Every registered analysis (escape, usage, spine-liveness and the
   reduced product) over the soundness corpus through its own cache
   namespace: the cold run solves and writes, the warm rerun must be
   completely evaluation-free.

   Committed artifacts also hold [framework-overhead] rows, measured
   against a frozen pre-framework solver since retired: the functorized
   solver's evaluations equal the frozen one's, and its aggregate wall
   time stays within 1.05x of it.  Those invariants hold wherever such
   rows exist. *)
let s5_measure () =
  (* each analysis in its own cache namespace inside one shared store *)
  with_scratch "s5" @@ fun dir ->
  let files = builtin_files dir in
  let store = Cache.Store.create (Filename.concat dir "cache") in
  List.concat_map
    (fun (e : Analyses.Registry.entry) ->
      let cold, warm =
        cold_warm (fun () ->
            List.map (fun p -> Analyses.Registry.job e ~store:(Some store) p) files)
      in
      List.map
        (fun phase ->
          ("workload", J.Str "analysis-cache")
          :: ("analysis", J.Str e.Analyses.Registry.name)
          :: phase_fields phase)
        [ cold; warm ])
    Analyses.Registry.all

let s5 =
  let overhead = where "workload" "framework-overhead" in
  let wall solver rs = sum "wall_ns" (where "solver" solver (overhead rs)) in
  {
    exp with
    id = "S5";
    title = "analysis framework -- per-analysis cache";
    points = (fun () -> [ () ]);
    measure = s5_measure;
    fields =
      (function
      | "framework-overhead" ->
          shape [ "workload"; "shape"; "solver" ] [ "size"; "evaluations"; "wall_ns" ]
      | _ -> cache_shape [ "analysis"; "phase" ]);
    invariants =
      [
        ( "the functorized solver performs exactly the frozen solver's evaluations",
          fun rs ->
            overhead rs = []
            || every_group [ "shape"; "size" ] (overhead rs) (fun g ->
                   pair g "solver" "legacy" "framework" (fun l f ->
                       num "evaluations" l = num "evaluations" f)) );
        ( "aggregate framework/legacy wall within 1.05x (+0.5 ms)",
          fun rs ->
            overhead rs = []
            || wall "framework" rs <= (wall "legacy" rs *. 1.05) +. 5e5 );
        ( "every analysis' warm rerun is evaluation-free",
          fun rs ->
            every_group [ "analysis" ] (where "workload" "analysis-cache" rs) (fun g ->
                pair g "phase" "cold" "warm" warm_free) );
      ];
    note =
      (fun rs ->
        if overhead rs = [] then ""
        else
          Printf.sprintf "aggregate framework/legacy wall ratio: %.3fx (budget 1.05x)\n"
            (wall "framework" rs /. wall "legacy" rs));
    gate =
      Some
        {
          gated with
          rows = (fun rs -> where "phase" "cold" (where "workload" "analysis-cache" rs));
          point = ignore;
          counters = [ "evaluations" ];
        };
  }

(* ---- S6: sharing-licensed reuse vs the Theorem-2 baseline --------------------------- *)

(* Part A measures, per shipped example, what each freshness judgment
   licenses: the Theorem-2 syntactic recursion alone (the seed baseline,
   [alias_reuse = false]) against the flow-sensitive sharing analysis
   joined with it.  Reuse is isolated from the arena optimizations so the
   storage delta is attributable: fewer heap cells allocated exactly
   where a DCONS recycles a spine the baseline could not prove fresh.
   Part B is the sharing analysis' persistent summary cache over the same
   corpus: the warm rerun must be evaluation-free in its own namespace. *)
type s6_point = Reuse of string | Sharing_cache

let s6_measure = function
  | Reuse path ->
      let src = In_channel.with_open_text path In_channel.input_all in
      let surface = Surface.of_string src in
      List.map
        (fun (mode, options) ->
          let optimize () =
            let r = T.optimize ~options (Nml.Infer.infer_program surface) in
            (Option.get r.T.reuse_report, run_machine r.T.ir)
          in
          let rep, stats = optimize () in
          let wall =
            if !smoke then time_once (fun () -> ignore (optimize ()))
            else measure_ns mode (fun () -> ignore (optimize ()))
          in
          [
            ("workload", J.Str "alias-reuse");
            ("example", J.Str (Filename.chop_suffix (Filename.basename path) ".nml"));
            ("mode", J.Str mode);
            ("candidates", J.int (List.length rep.Optimize.Reuse.candidates));
            ("substituted_calls", J.int rep.Optimize.Reuse.substituted_calls);
            ("alias_licensed", J.int rep.Optimize.Reuse.alias_licensed);
            ("heap_allocs", J.int stats.Stats.heap_allocs);
            ("dcons_reuses", J.int stats.Stats.dcons_reuses);
            ("wall_ns", ns wall);
          ])
        [
          ("t2-baseline", { T.none with T.monomorphize = true; T.reuse = true });
          ( "alias-informed",
            { T.none with T.monomorphize = true; T.reuse = true; T.alias_reuse = true } );
        ]
  | Sharing_cache ->
      let e = Option.get (Analyses.Registry.find "sharing") in
      with_scratch "s6" @@ fun dir ->
      let store = Cache.Store.create (Filename.concat dir "cache") in
      let files = example_files () in
      let cold, warm =
        cold_warm (fun () ->
            List.map (fun p -> Analyses.Registry.job e ~store:(Some store) p) files)
      in
      List.map
        (fun phase -> ("workload", J.Str "sharing-cache") :: phase_fields phase)
        [ cold; warm ]

let s6 =
  let reuse = where "workload" "alias-reuse" in
  let baseline_vs_alias f g = pair g "mode" "t2-baseline" "alias-informed" f in
  {
    exp with
    id = "S6";
    title = "sharing-licensed reuse -- Theorem-2 baseline vs alias-informed";
    points =
      (fun () ->
        match example_files () with
        | [] ->
            prerr_endline
              "S6: examples/programs/ not found (run from the repository root); skipping";
            []
        | files -> List.map (fun f -> Reuse f) files @ [ Sharing_cache ]);
    measure = s6_measure;
    fields =
      (function
      | "alias-reuse" ->
          shape [ "workload"; "example"; "mode" ]
            [ "candidates"; "substituted_calls"; "alias_licensed"; "heap_allocs";
              "dcons_reuses"; "wall_ns" ]
      | _ -> cache_shape [ "phase" ]);
    invariants =
      [
        ( "alias-informed redirects no fewer calls and allocates no more than the \
           baseline, which licenses nothing itself",
          fun rs ->
            every_group [ "example" ] (reuse rs)
              (baseline_vs_alias (fun t2 al ->
                   num "substituted_calls" al >= num "substituted_calls" t2
                   && num "heap_allocs" al <= num "heap_allocs" t2
                   && num "alias_licensed" t2 = 0.)) );
        ( "some sites are licensed only by the sharing analysis",
          fun rs -> sum "alias_licensed" (reuse rs) > 0. );
        ( "heap allocations drop on at least three examples",
          fun rs ->
            List.length
              (List.filter
                 (baseline_vs_alias (fun t2 al ->
                      num "heap_allocs" al < num "heap_allocs" t2))
                 (group [ "example" ] (reuse rs)))
            >= 3 );
        ( "the warm sharing-cache rerun is evaluation-free",
          fun rs ->
            pair (where "workload" "sharing-cache" rs) "phase" "cold" "warm" warm_free );
      ];
    gate =
      Some
        {
          rows = where "workload" "alias-reuse";
          point =
            (fun r -> Reuse (Filename.concat examples_dir (str "example" r ^ ".nml")));
          counters = [ "substituted_calls"; "heap_allocs" ];
          ratios = [ ("heap_allocs", ("mode", "t2-baseline", "alias-informed")) ];
          nonzero = [ "alias_licensed" ];
        };
  }

(* ---- L1: lint throughput through the summary cache --------------------------------- *)

let l1_measure () =
  with_scratch "l1" @@ fun dir ->
  (* the soundness corpus and shipped examples, plus a deterministic batch
     of random programs so per-SCC lint records face unfamiliar shapes *)
  let random_count = if !smoke then 8 else 40 in
  let rand = Random.State.make [| 20260807 |] in
  let random_files =
    List.init random_count (fun i ->
        let path = Filename.concat dir (Printf.sprintf "rand%02d.nml" i) in
        write_file path (QCheck.Gen.generate1 ~rand Gen.gen_any_program);
        path)
  in
  let files = batch_corpus dir @ random_files in
  let store = Cache.Store.create (Filename.concat dir "cache") in
  (* warm: every record replays without forcing the fixpoint solver *)
  let ((_, _, cold) as c), ((_, _, warm) as w) =
    cold_warm (fun () -> Cache.Batch.run ~analyze:Lint.Batch.job ~store ~jobs:1 files)
  in
  let identical =
    List.equal
      (fun (c : Cache.Batch.result) (w : Cache.Batch.result) ->
        String.equal c.Cache.Batch.output w.Cache.Batch.output)
      cold warm
  in
  (* per-rule audit: count each code's tag in the rendered findings *)
  let count_tag tag =
    let needle = Printf.sprintf "[%s]" tag in
    let nlen = String.length needle in
    List.fold_left
      (fun acc (r : Cache.Batch.result) ->
        let s = r.Cache.Batch.output in
        let n = ref 0 in
        for i = 0 to String.length s - nlen do
          if String.equal (String.sub s i nlen) needle then incr n
        done;
        acc + !n)
      0 cold
  in
  Printf.printf "per-rule findings over the corpus (cold run):\n";
  print_table [ "rule"; "findings" ]
    (List.map
       (fun code -> [ code; string_of_int (count_tag code) ])
       (Lint.Registry.codes ()));
  print_newline ();
  [
    ("workload", J.Str "lint-cache") :: phase_fields ~findings:true c;
    (("workload", J.Str "lint-cache") :: phase_fields ~findings:true w)
    @ [ ("identical", J.Bool identical) ];
  ]

let l1 =
  {
    exp with
    id = "L1";
    title = "lint cache -- cold vs warm batch linting over a mixed corpus";
    points = (fun () -> [ () ]);
    measure = l1_measure;
    fields =
      (fun _ ->
        shape [ "workload"; "phase" ]
          [ "files"; "findings"; "evaluations"; "scc_hits"; "scc_misses"; "wall_ns" ]);
    invariants =
      [
        ( "the warm rerun is evaluation-free and replays identical findings",
          fun rs ->
            let phase p = where "phase" p rs in
            phase "warm" <> []
            && phase "cold" <> []
            && zero "evaluations" (phase "warm")
            && List.for_all
                 (fun r -> List.assoc_opt "identical" r = Some (J.Bool true))
                 (phase "warm")
            && sum "findings" (phase "warm") = sum "findings" (phase "cold") );
      ];
  }

(* ---- E1: per-edit re-analysis latency through the daemon ---------------------------- *)

(* An editor session against [nmlc serve]: a warm phase (repeated
   analysis of unchanged files, every summary served from the hot
   in-memory tier) and an edit storm (each request re-analyzes a file
   whose one definition body just changed, so exactly its invalidation
   cone re-solves).  Latencies are per-request wall times over one
   persistent connection; the headline numbers are p50/p99. *)
let e1_measure () =
  with_scratch "e1" @@ fun dir ->
  let nfiles = if !smoke then 6 else 12 in
  let requests = if !smoke then 30 else 120 in
  let path i = Filename.concat dir (Printf.sprintf "edit%02d.nml" i) in
  (* per-file unique bodies (the [i] constant), with a togglable [c]:
     cache keys digest normalized bodies, so only a body change -- not
     a reformat -- invalidates the file's cone *)
  let write i c =
    write_file (path i)
      (Ex.wrap
         [
           Printf.sprintf "gen x = cons %d (cons x nil)" ((1000 * i) + c);
           "use l = gen (car l)";
         ]
         "use [1]")
  in
  let files = List.init nfiles (fun i -> write i 0; path i) in
  let sock = Filename.concat dir "s.sock" in
  let store =
    Cache.Store.create ~memory:true ~write_back:true (Filename.concat dir "cache")
  in
  let cfg =
    {
      (Serve.Server.default_config (Serve.Server.Socket sock)) with
      Serve.Server.jobs = 1;
      store = Some store;
      handle_signals = false;
      quiet = true;
    }
  in
  let stop = Serve.Server.spawn cfg in
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (Sys.file_exists sock)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Fun.protect ~finally:(fun () -> stop ()) @@ fun () ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* one request over the persistent connection: (latency_ns, evaluations) *)
  let analyze p =
    let payload =
      J.to_string
        (J.Obj
           [
             ("id", J.int 1);
             ("method", J.Str "analyze");
             ("params", J.Obj [ ("path", J.Str p) ]);
           ])
    in
    let t0 = Unix.gettimeofday () in
    if not (Serve.Frame.write fd payload) then failwith "E1: server gone";
    match Serve.Frame.read fd with
    | Error _ -> failwith "E1: no response"
    | Ok resp ->
        let t1 = Unix.gettimeofday () in
        let ev =
          let result = J.member "result" (J.parse resp) in
          match Option.bind result (J.member "evaluations") with
          | Some (J.Num f) -> int_of_float f
          | _ -> failwith ("E1: response without evaluations: " ^ resp)
        in
        ((t1 -. t0) *. 1e9, ev)
  in
  (* fill the hot tier *)
  List.iter (fun p -> ignore (analyze p)) files;
  let percentile sorted q =
    sorted.(min (Array.length sorted - 1) (Array.length sorted * q / 100))
  in
  let run_phase phase mutate =
    let lat = Array.make requests 0. in
    let evs = ref 0 in
    for r = 0 to requests - 1 do
      let i = r mod nfiles in
      mutate i r;
      let latency, ev = analyze (path i) in
      lat.(r) <- latency;
      evs := !evs + ev
    done;
    Array.sort compare lat;
    [
      ("workload", J.Str "edit-storm");
      ("phase", J.Str phase);
      ("files", J.int nfiles);
      ("requests", J.int requests);
      ("p50_ns", ns (percentile lat 50));
      ("p99_ns", ns (percentile lat 99));
      ("evaluations", J.int !evs);
    ]
  in
  (* warm: nothing changes, every request is a hot-tier replay *)
  let warm = run_phase "warm" (fun _ _ -> ()) in
  (* edit storm: before each request, the target file's definition body
     changes, so its cone (and nothing else) re-solves *)
  [ warm; run_phase "edit" (fun i r -> write i (1 + r)) ]

let e1 =
  {
    exp with
    id = "E1";
    title = "analysis daemon -- per-edit re-analysis latency under an edit storm";
    points = (fun () -> [ () ]);
    measure = e1_measure;
    fields =
      (fun _ ->
        shape [ "workload"; "phase" ]
          [ "files"; "requests"; "p50_ns"; "p99_ns"; "evaluations" ]);
    invariants =
      [
        ( "the warm phase is evaluation-free with p50 <= the edit storm's p99, \
           p50 <= p99 everywhere",
          fun rs ->
            let phase p = where "phase" p rs in
            phase "warm" <> []
            && phase "edit" <> []
            && List.for_all
                 (fun r -> num "p50_ns" r <= num "p99_ns" r && num "requests" r > 0.)
                 rs
            && zero "evaluations" (phase "warm")
            && positive "evaluations" (phase "edit")
            && List.for_all
                 (fun w ->
                   List.for_all
                     (fun e -> num "p50_ns" w <= num "p99_ns" e)
                     (phase "edit"))
                 (phase "warm") );
      ];
  }

(* ---- H1/H2: escape-guided heap -- throughput and pause distribution --------------- *)

(* Streaming workloads with a long-lived result and short-lived
   intermediates: the storage profile the generational/region heap is
   built for.  Each runs three ways -- the unannotated program on the
   legacy heap (analysis off), the same program on the generational heap
   (nursery only), and the fully annotated program on the generational
   heap (regions + pretenuring; analysis on).  The pause distribution is
   double-tracked: wall-clock nanoseconds for the headline, the
   deterministic cells-touched proxy for gates. *)

(* (experiment, workload, (smoke size, sizes), source of size n) *)
let h_sources =
  [
    ( "H1",
      "stream-pipeline",
      (200, [ 2000; 5000; 10000 ]),
      fun n ->
        Ex.wrap
          [ Ex.create_list_def; Ex.filter_def; Ex.map_def; Ex.sum_def ]
          (Printf.sprintf
             "sum (map (fun x -> x + 1) (filter (fun x -> x < %d) (create_list %d)))"
             (n / 2) n) );
    ( "H2",
      "sort-pipeline",
      (50, [ 100; 200; 400 ]),
      fun n ->
        Ex.wrap
          [ Ex.create_list_def; Ex.filter_def; Ex.map_def; Ex.insert_def;
            Ex.isort_def; Ex.sum_def ]
          (Printf.sprintf
             "sum (isort (map (fun x -> x * x) (filter (fun x -> x < %d) \
              (create_list %d))))"
             (n / 2) n) );
  ]

(* the points (workload, size) of one source *)
let h_points (_, workload, (small, sizes), _) =
  List.map (fun n -> (workload, n)) (if !smoke then [ small ] else sizes)

(* The three measured setups of a point (workload, size) of H1/H2 and
   V1: (config, policy, ir, heap configuration). *)
let h_setups (workload, n) =
  let _, _, _, mk_src = List.find (fun (_, w, _, _) -> w = workload) h_sources in
  let surface = Surface.of_string (mk_src n) in
  let base_ir = Runtime.Ir.of_program surface in
  (* Placement only: stack/block verdicts route intermediates into
     regions and pretenuring routes the escaping spine past the
     nursery.  Reuse stays off -- DCONS rewrites would claim the very
     call sites the region story is about and change the allocation
     counts the H invariants compare. *)
  let opt_ir =
    optimized
      { T.none with T.monomorphize = true; T.stack = true; T.block = true;
        T.pretenure = true }
      surface
  in
  let gen = Runtime.Heap.generational in
  [
    ("analysis-off", "legacy", base_ir, Runtime.Heap.legacy);
    ("analysis-off", "generational", base_ir, gen);
    ("analysis-on", "generational", opt_ir, gen);
  ]

(* What H1/H2, V1 and V2 gate: their smallest recorded size of each
   workload, measured again. *)
let smallest ?(ratios = []) counters =
  Some
    {
      gated with
      rows = extreme ( < );
      point = (fun r -> (str "workload" r, int_of_float (num "size" r)));
      counters;
      ratios;
    }

(* arena validation off: it is a debugging oracle that taxes exactly the
   config under measurement; the soundness harness runs it instead *)
let h_exec ir hcfg =
  let m = M.create ~heap_size:2048 ~config:hcfg () in
  let w = M.eval m ir in
  ignore (M.read_value m w);
  M.stats m

(* One run of an H/V1 setup.  Headline throughput is workload items per
   second -- the optimized program allocates {e fewer} cells by design,
   so an allocation-count rate would punish exactly the win being
   measured.  The raw allocation rate is still recorded.  Like the
   pauses, throughput is double-tracked: machine_work (evaluation steps
   + GC work) is the deterministic proxy the gates compare; wall-clock
   is the headline. *)
let heap_record ~workload ~n ?interp_wall (config, policy, _, _) stats wall =
  let cp50, cp95, cmax =
    Option.value (Stats.pause_percentiles_cells stats) ~default:(0, 0, 0)
  in
  let np50, np95, nmax =
    Option.value (Stats.pause_percentiles_ns stats) ~default:(0., 0., 0.)
  in
  let per_second count = ns (float_of_int count /. (wall /. 1e9)) in
  [
    ("workload", J.Str workload);
    ("config", J.Str config);
    ("policy", J.Str policy);
    ("size", J.int n);
    ("heap_allocs", J.int stats.Stats.heap_allocs);
    ("arena_allocs", J.int stats.Stats.arena_allocs);
    ("gc_runs", J.int stats.Stats.gc_runs);
    ("minor_gcs", J.int stats.Stats.minor_gcs);
    ("major_gcs", J.int stats.Stats.major_gcs);
    ("gc_work", J.int (Stats.gc_work stats));
    ("promoted", J.int stats.Stats.promoted);
    ("pretenured", J.int stats.Stats.pretenured);
    ("regions_reclaimed", J.int stats.Stats.regions_reclaimed);
    ("pause_cells_p50", J.int cp50);
    ("pause_cells_p95", J.int cp95);
    ("pause_cells_max", J.int cmax);
    ("pause_ns_p50", ns np50);
    ("pause_ns_p95", ns np95);
    ("pause_ns_max", ns nmax);
    ("wall_ns", ns wall);
  ]
  @ Option.fold ~none:[] ~some:(fun w -> [ ("interp_wall_ns", ns w) ]) interp_wall
  @ [
      ("machine_work", J.int (stats.Stats.steps + Stats.gc_work stats));
      ("throughput_ips", per_second n);
      ("alloc_rate_cps", per_second (Stats.total_allocs stats));
    ]

let h_nums =
  [ "size"; "heap_allocs"; "arena_allocs"; "gc_runs"; "minor_gcs"; "major_gcs"; "gc_work";
    "pause_cells_max"; "pause_ns_max"; "machine_work"; "wall_ns"; "throughput_ips";
    "alloc_rate_cps" ]

(* On every workload size, analysis-on must not do more GC work or pause
   longer (deterministic cells proxy) than analysis-off on the same
   generational heap, and must not pause longer than legacy wherever
   legacy paused at all (a growing legacy heap dodges collection on small
   inputs by spending footprint instead -- nothing beats zero pauses).
   Where the optimization had real room (>4096 cells of GC work saved --
   above the whole working set of a smoke run) the throughput must
   follow on the deterministic proxy: strictly less machine_work (steps
   + GC work) per run.  [slack] absorbs the VM's frame/register roots,
   which differ from the machine's environment chains by a handful of
   cells at any given collection point. *)
let heap_beats ~slack =
  ( "analysis-on beats analysis-off in gc_work and max pause, and in machine work \
     where the gap is real",
    fun rs ->
      every_group [ "workload"; "size" ] rs (fun g ->
          let at config policy =
            List.find_opt (fun r -> str "config" r = config && str "policy" r = policy) g
          in
          match
            ( at "analysis-on" "generational",
              at "analysis-off" "legacy",
              at "analysis-off" "generational" )
          with
          | Some on, Some leg, Some gen ->
              num "gc_work" on <= num "gc_work" gen
              && num "pause_cells_max" on <= num "pause_cells_max" gen +. slack
              && (num "pause_cells_max" leg = 0.
                 || num "pause_cells_max" on <= num "pause_cells_max" leg +. slack)
              && (num "gc_work" gen -. num "gc_work" on <= 4096.
                 || num "machine_work" on < num "machine_work" gen)
          | _ -> false) )

let h_exp experiment =
  let ((_, workload, _, _) as source) =
    List.find (fun (e, _, _, _) -> e = experiment) h_sources
  in
  {
    exp with
    id = experiment;
    title = Printf.sprintf "escape-guided heap -- %s: throughput and pauses" workload;
    points = (fun () -> h_points source);
    measure =
      (fun ((_, n) as point) ->
        List.map
          (fun ((_, _, ir, hcfg) as setup) ->
            let stats = h_exec ir hcfg in
            heap_record ~workload ~n setup stats
              (time_once (fun () -> ignore (h_exec ir hcfg))))
          (h_setups point));
    fields = (fun _ -> shape [ "workload"; "config"; "policy" ] h_nums);
    invariants = [ heap_beats ~slack:0. ];
    gate = smallest [ "heap_allocs"; "gc_work"; "pause_cells_max" ];
  }

(* ---- V1/V2: the bytecode VM -- storage optimizations at compiled speed ------------ *)

(* The same programs, heap configurations and storage policies as H1/H2
   and T4-T6, but executed on the compiled bytecode VM instead of the
   tree-walking machine.  The deterministic storage counters are the
   gates (the VM honors the optimizer's annotations natively, so
   opts-on must beat opts-off exactly as it does on the machine); the
   VM-vs-interpreter wall ratio is the headline and stays advisory. *)

module Vm = Backend.Vm

(* compile outside the timed loop; arena validation off like [h_exec] *)
let v_exec ?(heap = 2048) code hcfg =
  let m = Vm.create ~heap_size:heap ~config:hcfg () in
  ignore (Vm.read_value m (Vm.eval m code));
  Vm.stats m

let v1 =
  {
    exp with
    id = "V1";
    title = "bytecode VM -- the H1/H2 streaming pipelines, analysis on/off";
    points = (fun () -> List.concat_map h_points h_sources);
    measure =
      (fun ((workload, n) as point) ->
        List.map
          (fun ((_, _, ir, hcfg) as setup) ->
            let code = Vm.compile ir in
            let stats = v_exec code hcfg in
            let wall = time_once (fun () -> ignore (v_exec code hcfg)) in
            let interp_wall = time_once (fun () -> ignore (h_exec ir hcfg)) in
            heap_record ~workload ~n ~interp_wall setup stats wall)
          (h_setups point));
    fields =
      (fun _ -> shape [ "workload"; "config"; "policy" ] (h_nums @ [ "interp_wall_ns" ]));
    invariants = [ heap_beats ~slack:16. ];
    gate =
      smallest [ "heap_allocs"; "gc_work" ]
        ~ratios:[ ("gc_work", ("config", "analysis-off", "analysis-on")) ];
  }

let v2_sizes workload =
  if !smoke then
    [ (match workload with "t5-map-pair" -> 16 | "t4-rev" -> 32 | _ -> 50) ]
  else
    match workload with
    | "t4-ps" -> [ 100; 200; 400 ]
    | "t4-rev" -> [ 32; 64; 128 ]
    | "t5-map-pair" -> [ 16; 32; 64 ]
    | _ -> [ 50; 100; 200 ]

let v2_measure (workload, n) =
  let _, options, heap, mk_src = storage workload in
  let surface = Surface.of_string (mk_src n) in
  List.map
    (fun (config, ir) ->
      let code = Vm.compile ir in
      let stats = v_exec ~heap code Runtime.Heap.legacy in
      let wall = time_once (fun () -> ignore (v_exec ~heap code Runtime.Heap.legacy)) in
      let interp_wall = time_once (fun () -> ignore (run_machine ~heap ir)) in
      [
        ("workload", J.Str workload);
        ("config", J.Str config);
        ("size", J.int n);
        ("heap_allocs", J.int stats.Stats.heap_allocs);
        ("arena_allocs", J.int stats.Stats.arena_allocs);
        ("dcons_reuses", J.int stats.Stats.dcons_reuses);
        ("gc_runs", J.int stats.Stats.gc_runs);
        ("gc_work", J.int (Stats.gc_work stats));
        ("swept", J.int stats.Stats.swept);
        ("machine_work", J.int (stats.Stats.steps + Stats.gc_work stats));
        ("wall_ns", ns wall);
        ("interp_wall_ns", ns interp_wall);
        ("alloc_rate_cps", ns (float_of_int (Stats.total_allocs stats) /. (wall /. 1e9)));
      ])
    [
      ("opts-off", Runtime.Ir.of_program surface);
      ("opts-on", optimized options surface);
    ]

let v2 =
  let axis = ("config", "opts-off", "opts-on") in
  {
    exp with
    id = "V2";
    title = "bytecode VM -- the T4-T6 storage optimizations, opts on/off";
    points =
      (fun () ->
        List.concat_map
          (fun (w, _, _, _) -> List.map (fun n -> (w, n)) (v2_sizes w))
          storage_workloads);
    measure = v2_measure;
    fields =
      (fun _ ->
        shape [ "workload"; "config" ]
          [ "size"; "heap_allocs"; "arena_allocs"; "dcons_reuses"; "gc_runs"; "gc_work";
            "swept"; "machine_work"; "wall_ns"; "interp_wall_ns"; "alloc_rate_cps" ]);
    invariants =
      [
        ( "opts-on allocates no more heap cells and does no more GC work than \
           opts-off, with the optimization firing",
          fun rs ->
            every_group [ "workload"; "size" ] rs (fun g ->
                pair g "config" "opts-off" "opts-on" (fun off on ->
                    num "heap_allocs" on <= num "heap_allocs" off
                    && num "gc_work" on <= num "gc_work" off
                    && num "dcons_reuses" on +. num "arena_allocs" on > 0.)) );
      ];
    gate =
      smallest [ "heap_allocs"; "gc_work" ]
        ~ratios:[ ("heap_allocs", axis); ("gc_work", axis) ];
  }

(* ---- the table ------------------------------------------------------------------ *)

(* Every experiment, each recorded one under the committed artifact its
   records belong to. *)
let experiments =
  let artifact file =
    List.map (function Exp e -> Exp { e with artifact = Some file } | x -> x)
  in
  [
    Paper ("F1", f1); Paper ("T1", t1); Paper ("T2", t2); Paper ("T3", t3);
    Paper ("T4", t4); Paper ("T5", t5); Paper ("T6", t6); Paper ("T7", t7);
    Paper ("T8", t8); Paper ("T9", t9); Paper ("X1", x1); Paper ("X2", x2);
  ]
  @ artifact "BENCH_PR2.json" [ Exp s1; Exp s2 ]
  @ artifact "BENCH_PR4.json" [ Exp s3; Exp s4 ]
  @ artifact "BENCH_PR5.json" [ Exp l1 ]
  @ artifact "BENCH_PR6.json" [ Exp e1 ]
  @ artifact "BENCH_PR7.json" [ Exp (h_exp "H1"); Exp (h_exp "H2") ]
  @ artifact "BENCH_PR8.json" [ Exp s5 ]
  @ artifact "BENCH_PR9.json" [ Exp v1; Exp v2 ]
  @ artifact "BENCH_PR10.json" [ Exp s6 ]

let id_of = function Paper (id, _) -> id | Exp e -> e.id
let artifact_of = function Paper _ -> None | Exp e -> e.artifact

(* every artifact the table names, in table order *)
let artifacts = uniq (List.filter_map artifact_of experiments)

(* Runs one experiment and returns its records. *)
let run = function
  | Paper (_, f) ->
      f ();
      []
  | Exp e ->
      section e.id e.title;
      let rs =
        List.concat_map
          (fun p -> List.map (fun r -> ("experiment", J.Str e.id) :: r) (e.measure p))
          (e.points ())
      in
      let workloads = uniq (List.map (str "workload") rs) in
      List.iter
        (fun w ->
          if List.length workloads > 1 then Printf.printf "\n%s:\n" w;
          let sh = e.fields w in
          let cols =
            List.map
              (fun k ->
                if Filename.check_suffix k "_ns" then
                  (Filename.chop_suffix k "_ns" ^ "_ms", fun r -> ms (num k r))
                else (k, text k))
              (List.filter (( <> ) "workload") sh.strs @ sh.nums @ sh.bools)
          in
          print_table (List.map fst cols)
            (List.map
               (fun r -> List.map (fun (_, cell) -> cell r) cols)
               (where "workload" w rs)))
        workloads;
      print_newline ();
      List.iter
        (fun (name, holds) ->
          Printf.printf "%s: %s\n" name (if holds rs then "yes" else "NO (regression)"))
        e.invariants;
      print_string (e.note rs);
      rs

let write_artifact file rs =
  let doc =
    J.Obj
      [
        ("schema", J.Str "escape-bench/solver-v1");
        ("records", J.Arr (List.map (fun r -> J.Obj r) rs));
      ]
  in
  write_file file (J.to_string doc);
  Printf.printf "\nwrote %d records to %s\n" (List.length rs) file

let read_records file =
  match J.parse (In_channel.with_open_text file In_channel.input_all) with
  | exception Sys_error msg -> Error msg
  | exception J.Parse_error msg -> Error (Printf.sprintf "%s: invalid JSON: %s" file msg)
  | json -> (
      match J.member "records" json with
      | Some (J.Arr (_ :: _ as rs)) ->
          Ok (List.map (function J.Obj r -> r | _ -> []) rs)
      | _ -> Error (Printf.sprintf "%s: no \"records\" array" file))

(* ---- validate, gate, history: folds over the table ------------------------------ *)

(* Every record belongs to an experiment of the table and carries the
   fields its workload requires; every experiment with records in the
   file satisfies its invariants over them. *)
let validate file =
  match read_records file with
  | Error msg ->
      prerr_endline msg;
      false
  | Ok records ->
      let ok = ref true in
      let fail fmt =
        Printf.ksprintf (fun m -> Printf.eprintf "%s: %s\n" file m; ok := false) fmt
      in
      List.iter
        (fun r ->
          match List.find_opt (fun x -> id_of x = str "experiment" r) experiments with
          | Some (Exp e) ->
              let sh = e.fields (str "workload" r) in
              let typed p =
                List.for_all (fun k ->
                    Option.fold ~none:false ~some:p (List.assoc_opt k r))
              in
              if
                not
                  (typed (function J.Str _ -> true | _ -> false) sh.strs
                  && typed (function J.Num _ -> true | _ -> false) sh.nums
                  && typed (function J.Bool _ -> true | _ -> false) sh.bools)
              then fail "%s record with missing/ill-typed fields" e.id
          | _ -> fail "record of unknown experiment %S" (str "experiment" r))
        records;
      List.iter
        (function
          | Exp e ->
              let rs = where "experiment" e.id records in
              List.iter
                (fun (name, holds) ->
                  if rs <> [] && not (holds rs) then
                    fail "%s invariant broken: %s" e.id name)
                e.invariants
          | Paper _ -> ())
        experiments;
      if !ok then Printf.printf "%s: OK (%d records)\n" file (List.length records);
      !ok

(* The rows [g] re-derives of one experiment's [recorded] rows are
   measured again and compared; [report] gets each regression. *)
let gate_exp report e g recorded =
  let fail fmt = Printf.ksprintf report fmt in
  let key r =
    let sh = e.fields (str "workload" r) in
    let sized = List.filter (String.equal "size") sh.nums in
    List.map (fun k -> (k, text k r)) (sh.strs @ sized)
  in
  let rows = g.rows recorded in
  let now =
    List.concat_map
      (fun p ->
        try e.measure p
        with exn ->
          fail "%s re-measurement failed: %s" e.id (Printexc.to_string exn);
          [])
      (List.sort_uniq compare (List.map g.point rows))
    |> g.rows
  in
  let find k rs = List.find_opt (fun r -> key r = k) rs in
  let label r = String.concat " " (e.id :: List.map snd (key r)) in
  List.iter
    (fun r ->
      match find (key r) now with
      | None -> fail "%s: not measured again" (label r)
      | Some m ->
          List.iter
            (fun c ->
              if num c m > (num c r *. 1.2) +. 2. then
                fail "%s %s regressed: recorded %.0f, now %.0f" (label r) c (num c r)
                  (num c m))
            g.counters)
    rows;
  List.iter
    (fun (c, (axis, off, on)) ->
      let ratio a b = (num c a +. 1.) /. (num c b +. 1.) in
      List.iter
        (fun r ->
          let twin = List.map (fun (k, v) -> (k, if k = axis then on else v)) (key r) in
          match (find twin rows, find (key r) now, find twin now) with
          | Some r_on, Some m, Some m_on when str axis r = off ->
              if ratio m m_on < 0.8 *. ratio r r_on then
                fail "%s %s %s/%s ratio regressed: recorded %.2fx, now %.2fx" (label r) c
                  off on (ratio r r_on) (ratio m m_on)
          | _ -> ())
        rows)
    g.ratios;
  List.iter
    (fun c ->
      if sum c rows > 0. && sum c now <= 0. then
        fail "%s %s vanished: recorded %.0f, now 0" e.id c (sum c rows))
    g.nonzero

(* CI smoke: every artifact must still validate, and the deterministic
   headline counts each experiment's gate names must be reproducible
   today, by the experiment's own [measure], within the gate's bounds.
   With no files, every artifact the table names. *)
let gate files =
  let files = if files = [] then artifacts else files in
  let ok = ref true in
  let report m =
    Printf.eprintf "bench-gate: %s\n" m;
    ok := false
  in
  List.iter (fun f -> if not (validate f) then ok := false) files;
  let records =
    List.concat_map (fun f -> Result.value (read_records f) ~default:[]) files
  in
  (* repeated-run wall estimates are never gated: skip them *)
  timed := false;
  List.iter
    (function
      | Exp ({ gate = Some g; _ } as e) ->
          gate_exp report e g (where "experiment" e.id records)
      | _ -> ())
    experiments;
  if !ok then
    Printf.printf
      "bench-gate: OK (%d artifact(s), %d record(s); headline metrics within 20%%)\n"
      (List.length files) (List.length records);
  !ok

(* The artifacts fold into one schema-stable series: whatever family a
   record belongs to, it contributes to the same five columns, so the
   trajectory stays comparable as new experiments join the table. *)
let history files =
  let rows =
    List.concat_map
      (fun file ->
        let records = Result.value (read_records file) ~default:[] in
        List.filter_map
          (fun x ->
            match where "experiment" (id_of x) records with
            | [] -> None
            | rs ->
                Some
                  [
                    Filename.basename file;
                    id_of x;
                    string_of_int (List.length rs);
                    Printf.sprintf "%.0f" (sum "evaluations" rs);
                    ms (sum "wall_ns" rs);
                  ])
          experiments)
      files
  in
  print_table [ "artifact"; "experiment"; "records"; "evaluations"; "wall ms" ] rows;
  Printf.printf "\nhistory: %d artifact(s), %d series row(s)\n" (List.length files)
    (List.length rows)

(* ---- driver -------------------------------------------------------------------------- *)

let () =
  let json = ref None and mode = ref `Run and args = ref [] in
  let bad msg =
    Printf.eprintf
      "bench: %s\n\
       usage: main.exe [ID...] [--smoke] [--json FILE]\n\
      \       main.exe --validate FILE | --gate [FILE...] | --all [--smoke]\n\
       known experiments: %s\n"
      msg
      (String.concat ", " (List.map id_of experiments));
    exit 2
  in
  let is_flag s = String.length s > 1 && s.[0] = '-' in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--json" :: file :: rest when not (is_flag file) ->
        json := Some file;
        parse rest
    | "--validate" :: file :: rest when not (is_flag file) ->
        mode := `Validate file;
        parse rest
    | "--gate" :: rest ->
        mode := `Gate;
        parse rest
    | "--all" :: rest ->
        mode := `All;
        parse rest
    | flag :: _ when is_flag flag -> bad ("unknown option or missing argument: " ^ flag)
    | arg :: rest ->
        args := arg :: !args;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let args = List.rev !args in
  match !mode with
  | `Validate file -> if not (validate file) then exit 1
  | `Gate -> if not (gate args) then exit 1
  | `All ->
      if args <> [] then bad "--all takes no experiment or file";
      (* each artifact: regenerate, write, validate; then the series *)
      let valid =
        List.map
          (fun file ->
            write_artifact file
              (List.concat_map run
                 (List.filter (fun x -> artifact_of x = Some file) experiments));
            validate file)
          artifacts
      in
      history artifacts;
      if not (List.for_all Fun.id valid) then exit 1
  | `Run -> (
      let selected =
        if args = [] then experiments
        else
          List.map
            (fun id ->
              match
                List.find_opt (fun x -> id_of x = String.uppercase_ascii id) experiments
              with
              | Some x -> x
              | None -> bad ("unknown experiment " ^ id))
            args
      in
      let records = List.concat_map run selected in
      match !json with None -> () | Some file -> write_artifact file records)

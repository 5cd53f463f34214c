(* Quickstart: parse an nml program, run the escape analysis, apply the
   storage optimizations, and execute both versions on the storage
   simulator.

     dune exec examples/quickstart.exe *)

let program =
  {|
letrec
  append x y = if null x then y else cons (car x) (append (cdr x) y);
  rev l = if null l then nil else append (rev (cdr l)) (cons (car l) nil)
in rev [1, 2, 3, 4, 5, 6, 7, 8]
|}

let () =
  (* 1. parse *)
  let surface = Nml.Surface.of_string ~file:"quickstart.nml" program in
  Format.printf "--- program ---@.%a@.@." Nml.Surface.pp surface;

  (* 2. type inference *)
  let typed = Nml.Infer.infer_program surface in
  Format.printf "--- types ---@.";
  List.iter
    (fun (name, s) -> Format.printf "%s : %a@." name Nml.Infer.pp_scheme s)
    typed.Nml.Infer.schemes;
  Format.printf "@.";

  (* 3. escape analysis: which spines of which arguments can escape? *)
  let solver = Escape.Fixpoint.make typed in
  Format.printf "--- escape analysis ---@.%a@." Escape.Report.program solver;

  (* 4. one specific verdict, programmatically *)
  let v = Escape.Analysis.global solver "rev" ~arg:1 in
  Format.printf "rev keeps the top %d spine(s) of its argument in-house@.@."
    (Escape.Analysis.non_escaping_top_spines v);

  (* 5. optimize: the analysis licenses the paper's REV' (in-place reuse) *)
  let result = Optimize.Transform.optimize typed in
  Format.printf "--- optimizations applied ---@.%a@." Optimize.Transform.pp_report result;

  (* 6. run both versions on the storage simulator *)
  let run ir =
    let m = Runtime.Machine.create ~heap_size:64 ~check_arenas:true () in
    let w = Runtime.Machine.eval m ir in
    (Runtime.Machine.read_value m w, Runtime.Machine.stats m)
  in
  let v0, s0 = run (Runtime.Ir.of_program surface) in
  let v1, s1 = run result.Optimize.Transform.ir in
  Format.printf "--- execution ---@.";
  Format.printf "baseline : %a@." Nml.Eval.pp_value v0;
  Format.printf "optimized: %a@." Nml.Eval.pp_value v1;
  Format.printf "baseline  heap allocs %d, reuses %d, GC runs %d@."
    s0.Runtime.Stats.heap_allocs s0.Runtime.Stats.dcons_reuses s0.Runtime.Stats.gc_runs;
  Format.printf "optimized heap allocs %d, reuses %d, GC runs %d@."
    s1.Runtime.Stats.heap_allocs s1.Runtime.Stats.dcons_reuses s1.Runtime.Stats.gc_runs

(* The paper's appendix, end to end: analysis of the partition sort
   program (A.1), the sharing consequences (A.2), and all three storage
   optimizations (A.3) executed on the simulator.

     dune exec examples/partition_sort.exe *)

module An = Escape.Analysis
module B = Escape.Besc

let paper_expectations =
  [
    ("append", [ "<1,0>"; "<1,1>" ]);
    ("split", [ "<0,0>"; "<1,0>"; "<1,1>"; "<1,1>" ]);
    ("ps", [ "<1,0>" ]);
  ]

let () =
  let src = Nml.Examples.partition_sort_program in
  Format.printf "--- Appendix A program ---@.%s@.@." src;
  let surface = Nml.Surface.of_string src in
  let t = Escape.Fixpoint.of_source src in

  (* A.1: global escape tests, checked against the paper's values *)
  Format.printf "--- A.1 global escape analysis (paper vs computed) ---@.";
  List.iter
    (fun (name, expected) ->
      let got = List.map (fun v -> B.to_string v.An.esc) (An.global_all t name) in
      List.iteri
        (fun i e ->
          let g = List.nth got i in
          Format.printf "G(%s, %d): paper %s  computed %s  %s@." name (i + 1) e g
            (if String.equal e g then "[ok]" else "[MISMATCH]"))
        expected)
    paper_expectations;
  Format.printf "(fixpoint: %d passes, %d iterations, d = %d)@.@." (Escape.Fixpoint.passes t)
    (Escape.Fixpoint.iterations t) (Escape.Fixpoint.d t);
  Format.printf "--- A.1 Kleene iterates ---@.%a@."
    (Escape.Report.kleene_trace ?max_iters:None)
    (Nml.Infer.infer_program surface);

  (* A.2: sharing *)
  Format.printf "--- A.2 sharing from escape information ---@.";
  List.iter
    (fun name ->
      let i = Escape.Sharing.result_unshared t name in
      Format.printf "%s: top %d of the result's %d spine(s) unshared@." name
        i.Escape.Sharing.unshared_top i.Escape.Sharing.result_spines)
    [ "ps"; "split" ];
  Format.printf "@.";

  (* A.3.2: in-place reuse — PS'', SPLIT', APPEND' *)
  Format.printf "--- A.3.2 in-place reuse (PS'', SPLIT', APPEND') ---@.";
  let reuse = Optimize.Transform.optimize ~options:{ Optimize.Transform.none with reuse = true } (Nml.Infer.infer_program surface) in
  Format.printf "%a@." Optimize.Transform.pp_report reuse;

  (* A.3.1 stack allocation of the literal's spine, A.3.3 block allocation
     for ps (create_list n) *)
  let block_src =
    Nml.Examples.wrap
      [
        Nml.Examples.append_def;
        Nml.Examples.split_def;
        Nml.Examples.ps_def;
        Nml.Examples.create_list_def;
      ]
      "ps (create_list 100)"
  in
  let block_surface = Nml.Surface.of_string block_src in
  let block =
    Optimize.Transform.optimize ~options:{ Optimize.Transform.none with block = true }
      (Nml.Infer.infer_program block_surface)
  in
  Format.printf "--- A.3.3 block allocation for ps (create_list 100) ---@.%a@."
    Optimize.Transform.pp_report block;

  (* run all variants *)
  let run ir =
    let m = Runtime.Machine.create ~heap_size:64 ~check_arenas:true () in
    let w = Runtime.Machine.eval m ir in
    (Runtime.Machine.read_value m w, Runtime.Machine.stats m)
  in
  Format.printf "--- execution ---@.";
  let show label (v, s) =
    Format.printf
      "%-22s heap %4d  arena %4d  reuse %4d  gc %2d  marked %5d  arena-freed %4d  %a@."
      label s.Runtime.Stats.heap_allocs s.Runtime.Stats.arena_allocs
      s.Runtime.Stats.dcons_reuses s.Runtime.Stats.gc_runs s.Runtime.Stats.marked
      s.Runtime.Stats.arena_freed Nml.Eval.pp_value v
  in
  show "ps baseline" (run (Runtime.Ir.of_program surface));
  show "ps with reuse" (run reuse.Optimize.Transform.ir);
  let v0, s0 = run (Runtime.Ir.of_program block_surface) in
  let v1, s1 = run block.Optimize.Transform.ir in
  Format.printf
    "%-22s heap %4d  arena %4d  reuse %4d  gc %2d  marked %5d  arena-freed %4d  (%d elements)@."
    "ps-create baseline" s0.Runtime.Stats.heap_allocs s0.Runtime.Stats.arena_allocs
    s0.Runtime.Stats.dcons_reuses s0.Runtime.Stats.gc_runs s0.Runtime.Stats.marked
    s0.Runtime.Stats.arena_freed
    (List.length (Nml.Eval.list_of_value v0));
  Format.printf
    "%-22s heap %4d  arena %4d  reuse %4d  gc %2d  marked %5d  arena-freed %4d  (%d elements)@."
    "ps-create block" s1.Runtime.Stats.heap_allocs s1.Runtime.Stats.arena_allocs
    s1.Runtime.Stats.dcons_reuses s1.Runtime.Stats.gc_runs s1.Runtime.Stats.marked
    s1.Runtime.Stats.arena_freed
    (List.length (Nml.Eval.list_of_value v1))

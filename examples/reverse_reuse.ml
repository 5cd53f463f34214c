(* Naive reverse and the paper's REV' (A.3.2): quadratic allocation
   becomes linear-plus-reuse, and the collector goes quiet.

     dune exec examples/reverse_reuse.exe *)

let rev_src n =
  let elems = List.init n (fun i -> string_of_int (i + 1)) in
  Nml.Examples.wrap
    [ Nml.Examples.append_def; Nml.Examples.rev_def ]
    (Printf.sprintf "rev [%s]" (String.concat ", " elems))

let () =
  Format.printf "--- REV vs REV' (in-place reuse) ---@.";
  Format.printf "%-6s %12s %12s %10s %8s %8s@." "n" "base-allocs" "opt-allocs"
    "reuses" "base-gc" "opt-gc";
  List.iter
    (fun n ->
      let src = rev_src n in
      let surface = Nml.Surface.of_string src in
      let run ir =
        let m = Runtime.Machine.create ~heap_size:256 ~check_arenas:true () in
        let w = Runtime.Machine.eval m ir in
        ignore (Runtime.Machine.read_value m w);
        Runtime.Machine.stats m
      in
      let s0 = run (Runtime.Ir.of_program surface) in
      let r =
        Optimize.Transform.optimize
          ~options:{ Optimize.Transform.none with reuse = true }
          (Nml.Infer.infer_program surface)
      in
      let s1 = run r.Optimize.Transform.ir in
      Format.printf "%-6d %12d %12d %10d %8d %8d@." n s0.Runtime.Stats.heap_allocs
        s1.Runtime.Stats.heap_allocs s1.Runtime.Stats.dcons_reuses
        s0.Runtime.Stats.gc_runs s1.Runtime.Stats.gc_runs)
    [ 4; 8; 16; 32; 64 ];
  Format.printf
    "@.REV allocates O(n^2) cells; REV' recycles every spine cell it consumes:@.";
  Format.printf "the optimized version performs the same O(n^2) cons *operations*,@.";
  Format.printf "but all except the n singleton cells are in-place reuses.@."

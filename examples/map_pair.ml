(* The introduction's example: map pair [[1,2],[3,4],[5,6]].

   The paper derives three compile-time properties (section 1):
     1. the top spine of pair's parameter does not escape pair;
     2. the top spine of map's second parameter does not escape map,
        and the elements escape only to the extent the unknown f lets
        them;
     3. in this particular call, the top TWO spines of the literal do
        not escape,
   and concludes that both spine levels can be stack allocated.

     dune exec examples/map_pair.exe *)

module An = Escape.Analysis

let () =
  let src = Nml.Examples.map_pair_program in
  Format.printf "--- program ---@.%s@.@." src;
  let surface = Nml.Surface.of_string src in
  let t = Escape.Fixpoint.of_source src in

  (* property 1 *)
  let p1 = An.global t "pair" ~arg:1 in
  Format.printf "1. G(pair, 1) = %s: top spine of pair's parameter never escapes@."
    (Escape.Besc.to_string p1.An.esc);

  (* property 2 *)
  let p2 = An.global t "map" ~arg:2 in
  let pf = An.global t "map" ~arg:1 in
  Format.printf
    "2. G(map, 2) = %s (top spine stays), G(map, 1) = %s (f itself never escapes)@."
    (Escape.Besc.to_string p2.An.esc)
    (Escape.Besc.to_string pf.An.esc);

  (* property 3: the local test on this very call *)
  let args = [ Nml.Parser.parse "pair"; Nml.Parser.parse "[[1,2],[3,4],[5,6]]" ] in
  let p3 = An.local t "map" args ~arg:2 in
  Format.printf "3. L(map, 2) = %s on s = %d spines: top %d spines stay inside the call@.@."
    (Escape.Besc.to_string p3.An.esc)
    p3.An.spines
    (An.non_escaping_top_spines p3);

  (* Figure 1, on this very value *)
  let v = Nml.Eval.run (Nml.Surface.of_string "[[1,2],[3,4],[5,6]]") in
  Format.printf "--- Figure 1 ---@.%a@.@." Escape.Report.spines_figure v;

  (* stack-allocate both spine levels, as the paper suggests *)
  let r =
    Optimize.Transform.optimize ~options:{ Optimize.Transform.none with stack = true }
      (Nml.Infer.infer_program surface)
  in
  Format.printf "--- stack allocation ---@.%a@." Optimize.Transform.pp_report r;
  let run ir =
    let m = Runtime.Machine.create ~heap_size:64 ~check_arenas:true () in
    let w = Runtime.Machine.eval m ir in
    (Runtime.Machine.read_value m w, Runtime.Machine.stats m)
  in
  let v0, s0 = run (Runtime.Ir.of_program surface) in
  let v1, s1 = run r.Optimize.Transform.ir in
  Format.printf "baseline : %a  (heap %d, region %d)@." Nml.Eval.pp_value v0
    s0.Runtime.Stats.heap_allocs s0.Runtime.Stats.arena_allocs;
  Format.printf
    "stack    : %a  (heap %d, region %d, all %d region cells freed at call exit)@."
    Nml.Eval.pp_value v1 s1.Runtime.Stats.heap_allocs s1.Runtime.Stats.arena_allocs
    s1.Runtime.Stats.arena_freed

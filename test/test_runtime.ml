(* Tests for the storage simulator: evaluation agrees with the reference
   interpreter, the collector reclaims exactly the garbage, arenas free
   wholesale and are validated, DCONS recycles cells, and the statistics
   add up. *)

module M = Runtime.Machine
module Ir = Runtime.Ir
module Stats = Runtime.Stats
module Eval = Nml.Eval
module Surface = Nml.Surface
module Ex = Nml.Examples

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let value : Eval.value Alcotest.testable =
  Alcotest.testable (fun ppf v -> Eval.pp_value ppf v) Eval.equal_value

let run_src ?(heap_size = 64) ?(grow = true) src =
  let m = M.create ~heap_size ~grow ~check_arenas:true () in
  let w = M.run m (Surface.of_string src) in
  (M.read_value m w, m)

let eval_src src = Eval.run (Surface.of_string src)

(* ---- agreement with the reference interpreter --------------------------- *)

let agreement_tests =
  let case name src =
    Alcotest.test_case name `Quick (fun () ->
        let v, _ = run_src src in
        Alcotest.check value name (eval_src src) v)
  in
  [
    case "arith" "1 + 2 * 3";
    case "list" "[1, 2, 3]";
    case "nested-list" "[[1], [2, 3], []]";
    case "if" "if 1 < 2 then [1] else [2]";
    case "let" "let x = [1, 2] in cons 0 x";
    case "closure" "(fun f x -> f (f x)) (fun n -> n + 1) 5";
    case "partial-prim" "(cons 1) [2]";
    case "ps" Ex.partition_sort_program;
    case "map-pair" Ex.map_pair_program;
    case "rev" Ex.rev_program;
    case "isort" (Ex.wrap [ Ex.insert_def; Ex.isort_def ] "isort [9, 3, 7, 1]");
    case "concat" (Ex.wrap [ Ex.append_def; Ex.concat_def ] "concat [[1], [2, 3]]");
    case "create-list" (Ex.wrap [ Ex.create_list_def ] "create_list 6");
    case "foldr" (Ex.wrap [ Ex.foldr_def ] "foldr (fun a b -> cons (a * 2) b) nil [1, 2]");
    case "mutual"
      "letrec even n = if n = 0 then true else odd (n - 1); odd n = if n = 0 then false else even (n - 1) in even 9";
    case "pairs" "mkpair (1 + 2) [true]";
    case "pair-projections" "fst (mkpair 1 2) + snd (mkpair 3 4)";
    case "zip" (Ex.wrap [ Ex.zip_def ] "zip [1, 2] [3, 4]");
    case "swap" (Ex.wrap [ Ex.swap_def ] "swap (mkpair [1] [2])");
    case "assoc" (Ex.wrap [ Ex.assoc_def ] "assoc 0 2 [mkpair 1 10, mkpair 2 20]");
    case "trees" (Ex.wrap [ Ex.tinsert_def; Ex.tsum_def ] "tsum (tinsert 4 (tinsert 9 leaf))");
    case "tree-structure" "node (node leaf 1 leaf) 2 (node leaf 3 leaf)";
    case "tmap-on-machine" (Ex.wrap [ Ex.tmap_def ] "tmap (fun n -> n + 1) (node leaf 1 leaf)");
  ]

(* ---- collector ------------------------------------------------------------ *)

let gc_tests =
  [
    Alcotest.test_case "tiny-heap-still-correct" `Quick (fun () ->
        (* forces many collections *)
        let src = Ex.wrap [ Ex.append_def; Ex.rev_def ] "rev [1,2,3,4,5,6,7,8]" in
        let v, m = run_src ~heap_size:20 src in
        Alcotest.check value "result" (eval_src src) v;
        checkb "collected" true ((M.stats m).Stats.gc_runs > 0);
        checkb "swept" true ((M.stats m).Stats.swept > 0));
    Alcotest.test_case "no-growth-when-garbage-suffices" `Quick (fun () ->
        let src = Ex.wrap [ Ex.append_def; Ex.rev_def ] "rev [1,2,3,4,5,6,7,8]" in
        let m = M.create ~heap_size:24 ~grow:false () in
        let w = M.run m (Surface.of_string src) in
        checki "result head" 8
          (match M.read_value m w with
          | Eval.Vcons (Eval.Vint n, _) -> n
          | _ -> -1);
        checkb "collected" true ((M.stats m).Stats.gc_runs > 0);
        checki "capacity unchanged" 24 (M.stats m).Stats.heap_capacity);
    Alcotest.test_case "out-of-memory" `Quick (fun () ->
        (* all cells stay live: the whole result is returned *)
        let src = Ex.wrap [ Ex.create_list_def ] "create_list 50" in
        let m = M.create ~heap_size:16 ~grow:false () in
        match M.run m (Surface.of_string src) with
        | exception M.Out_of_memory -> ()
        | _ -> Alcotest.fail "expected Out_of_memory");
    Alcotest.test_case "growth-doubles" `Quick (fun () ->
        let src = Ex.wrap [ Ex.create_list_def ] "create_list 40" in
        let _, m = run_src ~heap_size:16 src in
        checkb "grew" true ((M.stats m).Stats.heap_capacity >= 40));
    Alcotest.test_case "live-cells-track" `Quick (fun () ->
        let m = M.create ~heap_size:16 () in
        let w = M.eval m (Ir.of_ast (Nml.Parser.parse "[1, 2, 3]")) in
        checki "live" 3 (M.live_cells m);
        ignore w;
        (* the result is not a root once we drop it: a forced collection
           with no roots reclaims everything *)
        M.collect m;
        checki "after gc" 0 (M.live_cells m));
    Alcotest.test_case "peak-live" `Quick (fun () ->
        let src = Ex.wrap [ Ex.create_list_def ] "create_list 10" in
        let _, m = run_src src in
        checkb "peak >= 10" true ((M.stats m).Stats.peak_live >= 10));
    Alcotest.test_case "fuel" `Quick (fun () ->
        let m = M.create ~fuel:50 () in
        match M.run m (Surface.of_string "letrec f x = f x in f 0") with
        | exception M.Out_of_fuel -> ()
        | _ -> Alcotest.fail "expected Out_of_fuel");
  ]

(* ---- resource limits leave the counters consistent -------------------------- *)

(* live cells = allocations - sweeps - arena frees, even when the run is
   cut short by an exception *)
let check_live_invariant m =
  let s = M.stats m in
  checki "live invariant"
    (Stats.total_allocs s - s.Stats.swept - s.Stats.arena_freed)
    (M.live_cells m)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let limit_tests =
  [
    Alcotest.test_case "oom-only-after-a-collection" `Quick (fun () ->
        (* a fixed-size heap raises only once a collection failed to help *)
        let src = Ex.wrap [ Ex.create_list_def ] "create_list 50" in
        let m = M.create ~heap_size:16 ~grow:false () in
        (match M.run m (Surface.of_string src) with
        | exception M.Out_of_memory -> ()
        | _ -> Alcotest.fail "expected Out_of_memory");
        checkb "collected first" true ((M.stats m).Stats.gc_runs >= 1);
        checki "capacity unchanged" 16 (M.stats m).Stats.heap_capacity;
        check_live_invariant m);
    Alcotest.test_case "fuel-exhaustion-stats" `Quick (fun () ->
        let m = M.create ~fuel:100 () in
        (match M.run m (Surface.of_string "letrec f x = f x in f 0") with
        | exception M.Out_of_fuel -> ()
        | _ -> Alcotest.fail "expected Out_of_fuel");
        checkb "steps consumed the budget" true ((M.stats m).Stats.steps >= 100);
        check_live_invariant m);
    Alcotest.test_case "oom-mid-build-stats" `Quick (fun () ->
        (* interrupted while consing: counters still add up *)
        let src = Ex.wrap [ Ex.append_def; Ex.rev_def ] "rev (append [1,2,3] [4,5,6])" in
        let m = M.create ~heap_size:4 ~grow:false () in
        (match M.run m (Surface.of_string src) with
        | exception M.Out_of_memory -> ()
        | _ -> Alcotest.fail "expected Out_of_memory");
        check_live_invariant m);
  ]

(* ---- arenas ---------------------------------------------------------------- *)

let ir_parse src = Ir.of_ast (Nml.Parser.parse src)

(* [length [1,2,3]] with the literal's spine in a region. *)
let region_program =
  let open Ir in
  let lst =
    App
      ( App (ConsAt (Arena 0), Const (Nml.Ast.Cint 1)),
        App (App (ConsAt (Arena 0), Const (Nml.Ast.Cint 2)), Const Nml.Ast.Cnil) )
  in
  Letrec
    ( [
        ( "length",
          Lam
            ( "l",
              If
                ( App (Prim Nml.Ast.Null, Var "l"),
                  Const (Nml.Ast.Cint 0),
                  App
                    ( App (Prim Nml.Ast.Add, Const (Nml.Ast.Cint 1)),
                      App (Var "length", App (Prim Nml.Ast.Cdr, Var "l")) ) ) ) );
      ],
      WithArena (Region, 0, App (Var "length", lst)) )

(* [id [1]] with the cell in a region: the cell escapes its arena. *)
let escaping_region_program =
  let open Ir in
  WithArena
    ( Region,
      0,
      App
        ( Lam ("x", Var "x"),
          App (App (ConsAt (Arena 0), Const (Nml.Ast.Cint 1)), Const Nml.Ast.Cnil) ) )

let arena_tests =
  [
    Alcotest.test_case "region-frees-wholesale" `Quick (fun () ->
        let m = M.create ~check_arenas:true () in
        let w = M.eval m region_program in
        checki "result" 2 (match w with M.Wint n -> n | _ -> -1);
        let s = M.stats m in
        checki "arena allocs" 2 s.Stats.arena_allocs;
        checki "arena freed" 2 s.Stats.arena_freed;
        checki "heap allocs" 0 s.Stats.heap_allocs;
        checki "gc untouched" 0 s.Stats.gc_runs;
        checki "nothing live" 0 (M.live_cells m));
    Alcotest.test_case "escape-detected" `Quick (fun () ->
        let m = M.create ~check_arenas:true () in
        match M.eval m escaping_region_program with
        | exception M.Error _ -> ()
        | _ -> Alcotest.fail "expected an arena safety violation");
    Alcotest.test_case "escape-undetected-gives-dangling" `Quick (fun () ->
        (* without the check the arena frees the escaping cell; reading the
           result then reports a dangling pointer *)
        let m = M.create ~check_arenas:false () in
        let w = M.eval m escaping_region_program in
        match M.read_value m w with
        | exception M.Error _ -> ()
        | _ -> Alcotest.fail "expected a dangling pointer");
    Alcotest.test_case "unknown-arena" `Quick (fun () ->
        let m = M.create () in
        let bad =
          Ir.App
            ( Ir.App (Ir.ConsAt (Ir.Arena 42), Ir.Const (Nml.Ast.Cint 1)),
              Ir.Const Nml.Ast.Cnil )
        in
        match M.eval m bad with
        | exception M.Error _ -> ()
        | _ -> Alcotest.fail "expected an error");
    Alcotest.test_case "nested-dynamic-arenas" `Quick (fun () ->
        (* the same static id nests: a recursive function opening an arena
           per activation allocates into its own *)
        let open Ir in
        let prog =
          Letrec
            ( [
                ( "f",
                  Lam
                    ( "n",
                      If
                        ( App (App (Prim Nml.Ast.Eq, Var "n"), Const (Nml.Ast.Cint 0)),
                          Const (Nml.Ast.Cint 0),
                          WithArena
                            ( Region,
                              7,
                              App
                                ( Lam
                                    ( "tmp",
                                      App
                                        ( Var "f",
                                          App
                                            ( App (Prim Nml.Ast.Sub, Var "n"),
                                              Const (Nml.Ast.Cint 1) ) ) ),
                                  App
                                    ( App (ConsAt (Arena 7), Var "n"),
                                      Const Nml.Ast.Cnil ) ) ) ) ) );
              ],
              App (Var "f", Const (Nml.Ast.Cint 4)) )
        in
        let m = M.create ~check_arenas:true () in
        let w = M.eval m prog in
        checki "result" 0 (match w with M.Wint n -> n | _ -> -1);
        checki "arena allocs" 4 (M.stats m).Stats.arena_allocs;
        checki "arena freed" 4 (M.stats m).Stats.arena_freed);
  ]

(* ---- chaos mode -------------------------------------------------------------- *)

let chaos_on = { Runtime.Heap.gc_period = 1; poison = true; chaos_seed = 7 }

(* [car] of a cell that died with its arena: the classic consequence of
   an unsound stack-allocation verdict *)
let use_after_free_program =
  let open Ir in
  App
    ( Prim Nml.Ast.Car,
      WithArena
        ( Region,
          0,
          App (App (ConsAt (Arena 0), Const (Nml.Ast.Cint 1)), Const Nml.Ast.Cnil) ) )

let chaos_tests =
  [
    Alcotest.test_case "chaos-gc-preserves-agreement" `Quick (fun () ->
        (* collecting at every allocation point must not change results *)
        let src = Ex.wrap [ Ex.append_def; Ex.rev_def ] "rev [1,2,3,4,5,6,7,8]" in
        let m = M.create ~heap_size:4 ~grow:true ~check_arenas:true ~chaos:chaos_on () in
        let v = M.read_value m (M.run m (Surface.of_string src)) in
        Alcotest.check value "result" (eval_src src) v;
        checkb "chaos collections happened" true ((M.stats m).Stats.chaos_gcs > 0);
        check_live_invariant m);
    Alcotest.test_case "chaos-is-deterministic" `Quick (fun () ->
        let src = Ex.wrap [ Ex.append_def; Ex.rev_def ] "rev [1,2,3,4,5]" in
        let run () =
          let m = M.create ~heap_size:4 ~chaos:chaos_on () in
          ignore (M.run m (Surface.of_string src));
          ((M.stats m).Stats.chaos_gcs, (M.stats m).Stats.gc_runs)
        in
        let a = run () and b = run () in
        checki "same forced collections" (fst a) (fst b);
        checki "same total collections" (snd a) (snd b));
    Alcotest.test_case "use-after-free-is-silent-without-poison" `Quick (fun () ->
        (* the machine of the seed scrubs freed cells to nil: the dangling
           car *succeeds* with a wrong answer — exactly what poisoning is
           there to catch *)
        let m = M.create ~check_arenas:false () in
        (match M.eval m use_after_free_program with
        | M.Wnil -> ()
        | w -> Alcotest.failf "expected the silent nil, got %a" (M.pp_word m) w));
    Alcotest.test_case "poison-crashes-use-after-free" `Quick (fun () ->
        let m =
          M.create ~check_arenas:false
            ~chaos:{ Runtime.Heap.no_chaos with Runtime.Heap.poison = true }
            ()
        in
        (match M.eval m use_after_free_program with
        | exception M.Error msg ->
            checkb "mentions use after free" true (contains_substring msg "freed")
        | w -> Alcotest.failf "expected a crash, got %a" (M.pp_word m) w);
        checkb "poisoned cells counted" true ((M.stats m).Stats.poisoned > 0));
    Alcotest.test_case "poison-does-not-disturb-sound-arenas" `Quick (fun () ->
        let m =
          M.create ~check_arenas:true
            ~chaos:{ chaos_on with Runtime.Heap.gc_period = 2 }
            ()
        in
        let w = M.eval m region_program in
        checki "result" 2 (match w with M.Wint n -> n | _ -> -1);
        checki "arena freed" 2 (M.stats m).Stats.arena_freed;
        check_live_invariant m);
  ]

(* ---- pairs in the store ------------------------------------------------------ *)

let pair_tests =
  [
    Alcotest.test_case "pairs-allocate-cells" `Quick (fun () ->
        let m = M.create () in
        ignore (M.eval m (ir_parse "mkpair 1 2"));
        checki "one cell" 1 (M.stats m).Stats.heap_allocs);
    Alcotest.test_case "pairs-are-collected" `Quick (fun () ->
        let m = M.create ~heap_size:8 () in
        (* build and drop pairs: the collector reclaims them *)
        let src = "letrec spin n = if n = 0 then 0 else spin (n - 1) + fst (mkpair 1 2) in spin 30" in
        let w = M.run m (Surface.of_string src) in
        checki "result" 30 (match w with M.Wint n -> n | _ -> -1);
        checkb "collected" true ((M.stats m).Stats.gc_runs > 0));
    Alcotest.test_case "pair-cells-marked-through" `Quick (fun () ->
        (* a live pair keeps its components alive across a collection *)
        let m = M.create ~heap_size:4 ~grow:true () in
        let w = M.eval m (ir_parse "let p = mkpair [1] [2, 3] in mkpair (fst p) (snd p)") in
        ignore w);
    Alcotest.test_case "fst-of-list-fails" `Quick (fun () ->
        let m = M.create () in
        match M.eval m (ir_parse "fst [1]") with
        | exception M.Error _ -> ()
        | _ -> Alcotest.fail "expected an error");
    Alcotest.test_case "car-of-pair-fails" `Quick (fun () ->
        let m = M.create () in
        match M.eval m (ir_parse "car (mkpair 1 2)") with
        | exception M.Error _ -> ()
        | _ -> Alcotest.fail "expected an error");
    Alcotest.test_case "tree-node-allocates-one-cell" `Quick (fun () ->
        let m = M.create () in
        ignore (M.eval m (ir_parse "node leaf 1 leaf"));
        checki "one cell" 1 (M.stats m).Stats.heap_allocs);
    Alcotest.test_case "tree-label-survives-gc" `Quick (fun () ->
        (* the label field must be a GC root through the node *)
        let m = M.create ~heap_size:4 ~grow:true () in
        let src =
          Ex.wrap [ Ex.tinsert_def; Ex.tsum_def ]
            "tsum (tinsert 1 (tinsert 2 (tinsert 3 (tinsert 4 (tinsert 5 leaf)))))"
        in
        let w = M.run m (Surface.of_string src) in
        checki "sum" 15 (match w with M.Wint n -> n | _ -> -1));
    Alcotest.test_case "label-of-leaf-fails" `Quick (fun () ->
        let m = M.create () in
        match M.eval m (ir_parse "label leaf") with
        | exception M.Error _ -> ()
        | _ -> Alcotest.fail "expected an error");
  ]

(* ---- DCONS ---------------------------------------------------------------- *)

let dcons_tests =
  [
    Alcotest.test_case "reuses-in-place" `Quick (fun () ->
        (* dcons [9] 1 nil redefines the cell *)
        let src = Ir.App (Ir.App (Ir.App (Ir.Dcons, ir_parse "[9]"), ir_parse "1"), ir_parse "nil") in
        let m = M.create () in
        let w = M.eval m src in
        Alcotest.check value "value" (Eval.value_of_int_list [ 1 ]) (M.read_value m w);
        checki "one alloc" 1 (M.stats m).Stats.heap_allocs;
        checki "one reuse" 1 (M.stats m).Stats.dcons_reuses);
    Alcotest.test_case "dcons-on-nil-fails" `Quick (fun () ->
        let src = Ir.App (Ir.App (Ir.App (Ir.Dcons, ir_parse "nil"), ir_parse "1"), ir_parse "nil") in
        let m = M.create () in
        match M.eval m src with
        | exception M.Error _ -> ()
        | _ -> Alcotest.fail "expected an error");
    Alcotest.test_case "dcons-on-int-fails" `Quick (fun () ->
        let src = Ir.App (Ir.App (Ir.App (Ir.Dcons, ir_parse "7"), ir_parse "1"), ir_parse "nil") in
        let m = M.create () in
        match M.eval m src with
        | exception M.Error _ -> ()
        | _ -> Alcotest.fail "expected an error");
  ]

(* ---- ir --------------------------------------------------------------------- *)

let ir_tests =
  [
    Alcotest.test_case "count-sites" `Quick (fun () ->
        checki "three conses" 3 (Ir.count_sites (ir_parse "[1, 2, 3]"));
        checki "none" 0 (Ir.count_sites (ir_parse "1 + 2")));
    Alcotest.test_case "map-conses" `Quick (fun () ->
        let e = ir_parse "[1, 2]" in
        let e' = Ir.map_conses (fun i -> if i = 0 then Ir.Arena 5 else Ir.Heap) e in
        let rec count_arena = function
          | Ir.ConsAt (Ir.Arena 5) -> 1
          | Ir.ConsAt _ | Ir.NodeAt _ | Ir.Const _ | Ir.Prim _ | Ir.Dcons | Ir.Dnode
          | Ir.Var _ ->
              0
          | Ir.App (f, a) -> count_arena f + count_arena a
          | Ir.Lam (_, b) -> count_arena b
          | Ir.If (c, t, f) -> count_arena c + count_arena t + count_arena f
          | Ir.Letrec (bs, b) ->
              List.fold_left (fun acc (_, rhs) -> acc + count_arena rhs) (count_arena b) bs
          | Ir.WithArena (_, _, b) -> count_arena b
        in
        checki "one annotated" 1 (count_arena e'));
    Alcotest.test_case "machine-error-on-type-violation" `Quick (fun () ->
        let m = M.create () in
        match M.eval m (ir_parse "car 5") with
        | exception M.Error _ -> ()
        | _ -> Alcotest.fail "expected an error");
  ]

(* ---- the generational heap --------------------------------------------------- *)

let tiny_gen nursery = { Runtime.Heap.generational with Runtime.Heap.nursery }

let run_gen ?(config = tiny_gen 2) ?(heap_size = 64) src =
  let m = M.create ~heap_size ~check_arenas:true ~config () in
  let w = M.run m (Surface.of_string src) in
  (M.read_value m w, m)

(* cons 0 (dcons [9] 1 [2]): the reused cell is promoted long before the
   young tail is written into it — the old-to-young edge only survives
   the next minor collection if the write barrier remembered it *)
let barrier_program =
  let open Ir in
  App
    ( App (Prim Nml.Ast.Cons, Const (Nml.Ast.Cint 0)),
      App
        ( App (App (Dcons, ir_parse "[9]"), Const (Nml.Ast.Cint 1)),
          ir_parse "[2]" ) )

let generational_tests =
  [
    Alcotest.test_case "promotion-preserves-results" `Quick (fun () ->
        let src = Ex.wrap [ Ex.append_def; Ex.rev_def ] "rev [1,2,3,4,5,6,7,8]" in
        let v, m = run_gen src in
        Alcotest.check value "result" (eval_src src) v;
        let s = M.stats m in
        checkb "minor collections ran" true (s.Stats.minor_gcs > 0);
        checkb "survivors were promoted" true (s.Stats.promoted > 0);
        checkb "promoted within allocations" true
          (s.Stats.promoted + s.Stats.pretenured <= s.Stats.heap_allocs);
        check_live_invariant m);
    Alcotest.test_case "minor-then-major-stay-consistent" `Quick (fun () ->
        let src = Ex.wrap [ Ex.create_list_def ] "create_list 10" in
        let _, m = run_gen ~config:(tiny_gen 3) src in
        M.collect_minor m;
        M.collect m;
        let s = M.stats m in
        checkb "split covers all collections" true
          (s.Stats.minor_gcs + s.Stats.major_gcs <= s.Stats.gc_runs);
        checkb "major ran" true (s.Stats.major_gcs > 0);
        check_live_invariant m);
    Alcotest.test_case "pretenured-cells-skip-the-nursery" `Quick (fun () ->
        let prog =
          Ir.App
            ( Ir.App (Ir.ConsAt Ir.Pretenured, Ir.Const (Nml.Ast.Cint 1)),
              Ir.App
                ( Ir.App (Ir.ConsAt Ir.Pretenured, Ir.Const (Nml.Ast.Cint 2)),
                  Ir.Const Nml.Ast.Cnil ) )
        in
        let m = M.create ~config:Runtime.Heap.generational () in
        let w = M.eval m prog in
        Alcotest.check value "value"
          (Eval.value_of_int_list [ 1; 2 ])
          (M.read_value m w);
        let s = M.stats m in
        checki "pretenured" 2 s.Stats.pretenured;
        checki "no minors triggered" 0 s.Stats.minor_gcs);
    Alcotest.test_case "pretenure-hint-ignored-when-disabled" `Quick (fun () ->
        let prog =
          Ir.App
            ( Ir.App (Ir.ConsAt Ir.Pretenured, Ir.Const (Nml.Ast.Cint 1)),
              Ir.Const Nml.Ast.Cnil )
        in
        let m =
          M.create
            ~config:{ Runtime.Heap.generational with Runtime.Heap.pretenure = false }
            ()
        in
        let w = M.eval m prog in
        Alcotest.check value "value" (Eval.value_of_int_list [ 1 ]) (M.read_value m w);
        checki "hint ignored" 0 (M.stats m).Stats.pretenured);
    Alcotest.test_case "barrier-keeps-old-to-young-edge" `Quick (fun () ->
        (* nursery of 1: every allocation ages its predecessors *)
        let m = M.create ~config:(tiny_gen 1) () in
        let w = M.eval m barrier_program in
        Alcotest.check value "value"
          (Eval.value_of_int_list [ 0; 1; 2 ])
          (M.read_value m w);
        let s = M.stats m in
        checkb "promotion happened" true (s.Stats.promoted > 0);
        checkb "reuse happened" true (s.Stats.dcons_reuses = 1);
        check_live_invariant m);
    Alcotest.test_case "regions-reset-wholesale" `Quick (fun () ->
        let m =
          M.create ~check_arenas:true ~config:Runtime.Heap.generational ()
        in
        let w = M.eval m region_program in
        checki "result" 2 (match w with M.Wint n -> n | _ -> -1);
        let s = M.stats m in
        checki "arena allocs" 2 s.Stats.arena_allocs;
        checki "arena freed" 2 s.Stats.arena_freed;
        checki "one region reclaimed" 1 s.Stats.regions_reclaimed;
        checki "no gc needed" 0 s.Stats.gc_runs);
    Alcotest.test_case "arena-reset-poisons-under-generational" `Quick (fun () ->
        (* a dangling read into a reset region must crash, not read stale
           bits, exactly as on the legacy heap *)
        let m =
          M.create ~check_arenas:false
            ~chaos:{ Runtime.Heap.no_chaos with Runtime.Heap.poison = true }
            ~config:Runtime.Heap.generational ()
        in
        (match M.eval m use_after_free_program with
        | exception M.Error msg ->
            checkb "mentions use after free" true (contains_substring msg "freed")
        | w -> Alcotest.failf "expected a crash, got %a" (M.pp_word m) w);
        checkb "poisoned cells counted" true ((M.stats m).Stats.poisoned > 0));
    Alcotest.test_case "regions-off-falls-back-to-the-heap" `Quick (fun () ->
        let m =
          M.create ~check_arenas:true
            ~config:{ Runtime.Heap.generational with Runtime.Heap.regions = false }
            ()
        in
        let w = M.eval m region_program in
        checki "result" 2 (match w with M.Wint n -> n | _ -> -1);
        let s = M.stats m in
        checki "no arena cells" 0 s.Stats.arena_allocs;
        checki "spine on the gc heap" 2 s.Stats.heap_allocs;
        checki "nothing reclaimed wholesale" 0 s.Stats.regions_reclaimed);
    Alcotest.test_case "chaos-agrees-on-the-generational-heap" `Quick (fun () ->
        let src = Ex.wrap [ Ex.append_def; Ex.rev_def ] "rev [1,2,3,4,5,6,7,8]" in
        let m =
          M.create ~heap_size:4 ~grow:true ~check_arenas:true ~chaos:chaos_on
            ~config:(tiny_gen 2) ()
        in
        let v = M.read_value m (M.run m (Surface.of_string src)) in
        Alcotest.check value "result" (eval_src src) v;
        checkb "chaos collections happened" true ((M.stats m).Stats.chaos_gcs > 0);
        check_live_invariant m);
    Alcotest.test_case "fragmentation-witness-recycles-freed-cells" `Quick (fun () ->
        (* an alloc/free churn several times over capacity in a
           fixed-size store: every allocation after the first sweep must
           come off the intrusive free list, so capacity never moves *)
        let src =
          Ex.wrap
            [ Ex.insert_def; Ex.isort_def; Ex.last_def ]
            "last (isort [9,3,7,1,8,2,6,4,5]) + last (isort [5,4,6,2,8,1,7,3,9])"
        in
        List.iter
          (fun config ->
            let m = M.create ~heap_size:32 ~grow:false ~check_arenas:true ~config () in
            let w = M.run m (Surface.of_string src) in
            Alcotest.check value "result" (eval_src src) (M.read_value m w);
            let s = M.stats m in
            checkb "churn exceeded capacity" true (Stats.total_allocs s > 64);
            checki "capacity unchanged" 32 s.Stats.heap_capacity;
            check_live_invariant m)
          [ Runtime.Heap.legacy; tiny_gen 4 ]);
  ]

(* ---- pause statistics --------------------------------------------------------- *)

let pause_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"pause percentiles are monotone" ~count:300
        QCheck.(list (int_bound 100_000))
        (fun cells ->
          let s = Stats.create () in
          List.iter (fun c -> Stats.record_pause s ~cells:c ~ns:(float_of_int c)) cells;
          match (Stats.pause_percentiles_cells s, Stats.pause_percentiles_ns s) with
          | None, None -> cells = []
          | Some (p50, p95, mx), Some (n50, n95, nmx) ->
              cells <> []
              && p50 <= p95 && p95 <= mx
              && mx = List.fold_left max 0 cells
              && n50 <= n95 && n95 <= nmx
              && int_of_float nmx = List.fold_left max 0 cells
          | _ -> false);
    ]

(* ---- resolved environments and fused primitives ------------------------------- *)

(* unary and binary primitives, cons, pairs, a partially applied cons
   mapped over a list, and a lambda whose parameter shadows a let *)
let tick_order_program =
  Ex.wrap [ Ex.map_def; Ex.length_def ]
    "let xs = [7, 8] in\n\
     let p = mkpair (length xs) (not (null xs)) in\n\
     mkpair (map (cons 0) [[1], [2]])\n\
    \  ((fun xs -> if (1 < 2) and (snd p or false)\n\
    \     then cons (fst p + car xs * 2 - 1) (cons (9 div 2 + 9 mod 2) (cdr xs))\n\
    \     else nil) (cons (length xs) xs))"

(* the closure [h] captures the body environment of a lambda whose
   parameter shadows a list-holding [l]: the outer list is garbage once
   the application returns, unless a shadowed binding stayed visible *)
let shadowing_program =
  Ex.wrap [ Ex.create_list_def; Ex.sum_def ]
    "let h = (let l = create_list 30 in fun l -> fun u -> sum l + u) [1, 2] in\n\
     h (sum (create_list 12)) + h (sum (create_list 6))"

(* the machine's calls and reuse nodes, each under the optimizer with
   pretenuring: DCONS, DNODE, a partial application used twice, an
   over-application, the shadowing program and a letrec slot filled
   after a closure over it was made *)
let counter_programs =
  [
    ("reverse", Ex.wrap [ Ex.append_def; Ex.rev_def ] "rev [1, 2, 3, 4, 5, 6, 7, 8]");
    ( "bst",
      Ex.wrap
        [ Ex.tinsert_def; Ex.mirror_def; Ex.tsum_def ]
        "tsum (mirror (tinsert 4 (tinsert 1 (tinsert 3 (tinsert 5 leaf)))))" );
    ( "partial",
      Ex.wrap
        [ Ex.map_def; Ex.sum_def; "pad n l = cons (n + car l) (cdr l)"; "hd2 n l = n + car l" ]
        "let f = pad 1 in\n\
         let g = hd2 5 in\n\
         sum (map car (map f [[1, 2], [3]])) + sum (map car (map f [[4]])) + g [6] + g [7] + hd2 1 [8]" );
    ( "over-application",
      Ex.wrap
        [
          Ex.map_def;
          Ex.length_def;
          "pick n = if n = 0 then fun a b -> a else fun a b -> b";
          "app2 f x = f x";
          "pad n l = cons (n + car l) (cdr l)";
        ]
        "length (pick 1 [1, 2] (map (fun x -> x + 1) [3, 4, 5])) + length (pick 0 [6] [7, 8])\n\
        \ + car (app2 pad 1 [5, 6])" );
    ("shadowing", shadowing_program);
    ( "late-fill",
      "letrec f a b = if b = 0 then cons a nil else g (b - 1); g = f 1 in g 3" );
  ]

let counter_row m =
  let s = M.stats m in
  Printf.sprintf
    "steps=%d heap_allocs=%d dcons_reuses=%d marked=%d promoted=%d pretenured=%d minor=%d \
     major=%d remembered=%d swept=%d peak_live=%d pauses=%d hint_sites=%d hints_accepted=%d"
    s.Stats.steps s.Stats.heap_allocs s.Stats.dcons_reuses s.Stats.marked s.Stats.promoted
    s.Stats.pretenured
    s.Stats.minor_gcs s.Stats.major_gcs s.Stats.remembered s.Stats.swept s.Stats.peak_live
    s.Stats.pauses s.Stats.hint_sites s.Stats.hints_accepted

(* [n] one-line definitions in scope and a 40,000-call loop through the
   first *)
let wide_scope_program n =
  let defs = List.init n (fun k -> Printf.sprintf "d%d x = x + %d" (k + 1) (k + 1)) in
  Ex.wrap
    (defs @ [ "loop n acc = if n = 0 then acc else loop (n - 1) (d1 acc)" ])
    "loop 20000 0"

let resolved_tests =
  [
    Alcotest.test_case "call-cost-does-not-grow-with-scope" `Quick (fun () ->
        let words n =
          let ir = Ir.of_program (Surface.of_string (wide_scope_program n)) in
          let m = M.create () in
          let before = Gc.allocated_bytes () in
          let w = M.eval m ir in
          let after = Gc.allocated_bytes () in
          checki "result" 20000 (match w with M.Wint n -> n | _ -> -1);
          (after -. before) /. float_of_int (Sys.word_size / 8)
        in
        let narrow = words 10 and wide = words 2000 in
        if wide > 1.5 *. narrow then
          Alcotest.failf "2,000 definitions in scope allocate %.0f words, 10 allocate %.0f"
            wide narrow);
    Alcotest.test_case "every-counter-of-calls-and-reuse" `Quick (fun () ->
        let options = { Optimize.Transform.all with Optimize.Transform.pretenure = true } in
        let prepared =
          List.map
            (fun (name, src) ->
              let s = Surface.of_string src in
              let typed = Nml.Infer.infer_program s in
              let hints =
                Framework.Spinelive.dead_spine_params (Framework.Spinelive.Solver.make typed)
              in
              let config = { (tiny_gen 2) with Runtime.Heap.liveness_hints = hints } in
              (name, src, (Optimize.Transform.optimize ~options typed).Optimize.Transform.ir, config))
            counter_programs
        in
        let machine ?fuel config =
          M.create ~heap_size:16 ~check_arenas:true ?fuel ~chaos:chaos_on ~config ()
        in
        let rows =
          List.map
            (fun (name, src, ir, config) ->
              let m = machine config in
              Alcotest.check value name (eval_src src) (M.read_value m (M.eval m ir));
              check_live_invariant m;
              name ^ ": " ^ counter_row m)
            prepared
        in
        Alcotest.check
          Alcotest.(list string)
          "counters"
          [
            "reverse: steps=1143 heap_allocs=8 dcons_reuses=36 marked=14 promoted=7 \
             pretenured=0 minor=5 major=3 remembered=1 swept=0 peak_live=8 pauses=8 \
             hint_sites=0 hints_accepted=0";
            "bst: steps=634 heap_allocs=9 dcons_reuses=4 marked=15 promoted=8 pretenured=0 \
             minor=5 major=4 remembered=0 swept=3 peak_live=6 pauses=9 hint_sites=0 \
             hints_accepted=0";
            "partial: steps=529 heap_allocs=12 dcons_reuses=6 marked=15 promoted=8 \
             pretenured=0 minor=8 major=5 remembered=2 swept=12 peak_live=7 pauses=13 \
             hint_sites=1 hints_accepted=3";
            "over-application: steps=374 heap_allocs=11 dcons_reuses=3 marked=8 promoted=2 \
             pretenured=7 minor=6 major=5 remembered=0 swept=8 peak_live=5 pauses=11 \
             hint_sites=0 hints_accepted=0";
            "shadowing: steps=1743 heap_allocs=32 dcons_reuses=0 marked=244 promoted=32 \
             pretenured=0 minor=35 major=16 remembered=0 swept=30 peak_live=37 pauses=51 \
             hint_sites=0 hints_accepted=0";
            "late-fill: steps=80 heap_allocs=1 dcons_reuses=0 marked=0 promoted=0 \
             pretenured=0 minor=1 major=0 remembered=0 swept=0 peak_live=1 pauses=1 \
             hint_sites=0 hints_accepted=0";
          ]
          rows;
        let trace = Buffer.create 65536 in
        List.iter
          (fun (name, _, ir, config) ->
            let full = machine config in
            ignore (M.eval full ir);
            let steps = (M.stats full).Stats.steps in
            for fuel = 0 to steps - 1 do
              let m = machine ~fuel config in
              match M.eval m ir with
              | _ -> Alcotest.failf "%s: fuel %d of %d sufficed" name fuel steps
              | exception M.Out_of_fuel ->
                  let s = M.stats m in
                  Printf.bprintf trace "%s %d %d %d %d\n" name fuel s.Stats.steps
                    s.Stats.heap_allocs s.Stats.marked
            done)
          prepared;
        Alcotest.check Alcotest.string "(steps, heap_allocs, marked) at each exhaustion"
          "beb5ec5e2e896348725d31ed5dd022cd"
          (Digest.to_hex (Digest.string (Buffer.contents trace))));

    Alcotest.test_case "out-of-fuel-exactly-when-the-budget-falls-short" `Quick
      (fun () ->
        let ir = Ir.of_program (Surface.of_string tick_order_program) in
        let full = M.create () in
        Alcotest.check value "result"
          (eval_src tick_order_program)
          (M.read_value full (M.eval full ir));
        let steps = (M.stats full).Stats.steps in
        checki "steps" 318 steps;
        let trace = Buffer.create 4096 and wrong = ref [] in
        for fuel = 0 to steps do
          let m = M.create ~heap_size:8 ~fuel () in
          match M.eval m ir with
          | _ -> if fuel < steps then wrong := fuel :: !wrong
          | exception M.Out_of_fuel ->
              if fuel >= steps then wrong := fuel :: !wrong;
              let s = M.stats m in
              Printf.bprintf trace "%d %d %d\n" fuel s.Stats.steps s.Stats.heap_allocs
        done;
        Alcotest.check Alcotest.(list int) "budgets with the wrong outcome" [] !wrong;
        Alcotest.check Alcotest.string "(steps, heap_allocs) at each exhaustion"
          "af689644fc880f1a887dd8f9e9a7ccc9"
          (Digest.to_hex (Digest.string (Buffer.contents trace))));
    Alcotest.test_case "shadowed-binding-is-not-marked" `Quick (fun () ->
        let m =
          M.create ~heap_size:64 ~check_arenas:true ~chaos:chaos_on ~config:(tiny_gen 2)
            ()
        in
        let v = M.read_value m (M.run m (Surface.of_string shadowing_program)) in
        Alcotest.check value "result" (eval_src shadowing_program) v;
        let s = M.stats m in
        checki "marked" 240 s.Stats.marked;
        checki "promoted" 48 s.Stats.promoted;
        check_live_invariant m);
    Alcotest.test_case "node-operands-stay-rooted" `Quick (fun () ->
        (* each label is a fresh list, and the right subtree allocates
           and collects before the node is built *)
        let src =
          "letrec mk n = if n = 0 then leaf else node (mk (n - 1)) (cons n nil) (mk (n - 1));\n\
          \       labels t = if isleaf t then nil else cons (car (label t)) (labels (right t))\n\
           in labels (mk 4)"
        in
        let m = M.create ~heap_size:4 ~chaos:chaos_on ~config:(tiny_gen 2) () in
        Alcotest.check value "result" (eval_src src)
          (M.read_value m (M.run m (Surface.of_string src))));
    Alcotest.test_case "letrec-closure-sees-a-later-fill" `Quick (fun () ->
        let src = "letrec f a b = if b = 0 then a else g (b - 1); g = f 1 in g 3" in
        let v, _ = run_src src in
        Alcotest.check value "result" (Eval.Vint 1) v);
    Alcotest.test_case "run-time-scope-errors-keep-their-text" `Quick (fun () ->
        let error_of ir =
          match M.eval (M.create ()) ir with
          | exception M.Error msg -> msg
          | _ -> Alcotest.fail "expected an error"
        in
        Alcotest.check Alcotest.string "early use"
          "letrec binding f is used before its definition is evaluated"
          (error_of Ir.(Letrec ([ ("f", Var "f") ], Var "f")));
        Alcotest.check Alcotest.string "unbound" "unbound identifier y at run time"
          (error_of Ir.(App (Lam ("x", Var "y"), Const (Nml.Ast.Cint 1)))));
  ]

(* ---- differential property -------------------------------------------------- *)

let differential =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"machine agrees with reference interpreter" ~count:300
        (QCheck.make ~print:(fun s -> s) Gen.gen_program)
        (fun src ->
          let expected = eval_src src in
          let m = M.create ~heap_size:8 ~grow:true ~check_arenas:true () in
          let got = M.read_value m (M.run m (Surface.of_string src)) in
          Eval.equal_value expected got);
      QCheck.Test.make ~name:"machine under memory pressure agrees" ~count:150
        (QCheck.make ~print:(fun s -> s) Gen.gen_program)
        (fun src ->
          let expected = eval_src src in
          let m = M.create ~heap_size:2 ~grow:true () in
          let got = M.read_value m (M.run m (Surface.of_string src)) in
          Eval.equal_value expected got);
      QCheck.Test.make ~name:"generational machine agrees with reference" ~count:200
        (QCheck.make ~print:(fun s -> s) Gen.gen_program)
        (fun src ->
          let expected = eval_src src in
          let m =
            M.create ~heap_size:8 ~grow:true ~check_arenas:true
              ~config:(tiny_gen 2) ()
          in
          let got = M.read_value m (M.run m (Surface.of_string src)) in
          Eval.equal_value expected got);
    ]

let () =
  Alcotest.run "runtime"
    [
      ("agreement", agreement_tests);
      ("gc", gc_tests);
      ("limits", limit_tests);
      ("arenas", arena_tests);
      ("chaos", chaos_tests);
      ("pairs", pair_tests);
      ("dcons", dcons_tests);
      ("ir", ir_tests);
      ("generational", generational_tests);
      ("pauses", pause_tests);
      ("resolved", resolved_tests);
      ("differential", differential);
    ]

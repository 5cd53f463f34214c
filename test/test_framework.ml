(* Tests for the pluggable analysis framework (PR8).

   - Frozen solver results: the functorized escape solver
     ([Framework.Solver.Make (Espec)], what [Escape.Fixpoint] is) must
     reproduce the verdicts AND the solver behaviour (entry evaluations,
     passes, chain bound, memo hits/misses/invalidations, SCC counts) the
     pre-framework solver computed — on the builtin corpus, a wide chain,
     a recursion nest, two capped runs and a 300-program random corpus,
     pinned with their sources in [test/fixpoints.table]
     ([Support.Fixpoint_table]).
   - Frozen flag-analysis results: the usage, spine-liveness, sharing
     and escape x usage verdicts and solver counters (and the escape
     solver's iterations and cap flag) on the builtin corpus, the
     example programs, 40 random programs and nested-[letrec] programs
     at the default cap and at [max_iters 1], pinned in
     [test/flags.table].
   - Memo staleness: over the same programs, every stale flag the
     escape, usage and sharing solvers' memos pushed from a touched
     source must equal the pull definition ([Stale_oracle]: some read in
     the entry's transitive trace has moved on).
   - The flag domains' memo: a re-application hits, a first run keeps
     the body's value, a touch stales an entry that is then recomputed,
     and a usage solver counts invalidations.
   - Golden files: the rendered report, solver-stats block, optimized
     program and optimized bytecode of every example program must be
     byte-identical to the captures in [test/golden/] ([make goldens]
     regenerates them from the CLI).
   - Lattice laws per registered domain (escape's B_e, usage's bits,
     spine-liveness' bits): partial order, join laws, widening is an
     upper bound.  The bit domains are finite, so the laws are checked
     exhaustively; B_e additionally by qcheck over random chain pairs.
   - Verdict witnesses, firing and non-firing, for each new Spec, and
     the one difference between the escape and the flag walks: only the
     flag analyses evaluate a condition.
   - Cache: per-analysis key namespacing, old-schema/corrupt records are
     clean misses, warm reruns of every registered analysis perform zero
     evaluations.
   - Cache record format: the records the usage, spine-liveness and
     sharing codecs write are pinned byte for byte, and every record
     written over the builtin corpus round-trips.
   - The reduced product agrees with (is no coarser than) the component
     analyses run alone. *)

module Fix = Escape.Fixpoint
module An = Escape.Analysis
module B = Escape.Besc
module D = Escape.Dvalue
module Usage = Framework.Usage
module Spinelive = Framework.Spinelive
module Product = Analyses.Product
module Registry = Analyses.Registry
module Engine = Cache.Engine
module Examples = Nml.Examples
module Ty = Nml.Ty

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let infer src = Nml.Infer.infer_program (Nml.Surface.of_string src)

(* The solver stress shapes: descent through a wide chain, and a nest of
   mutually recursive entries that the sweep condenses. *)
let wide_chain_src =
  Examples.wrap
    (List.init 40 (fun i ->
         if i = 0 then "w0 x = cons 0 x"
         else Printf.sprintf "w%d x = w%d (cons %d x)" i (i - 1) i))
    "w39 [1, 2]"

let recursion_nest_src =
  Examples.wrap
    (List.init 8 (fun i ->
         if i = 0 then "f0 x y = if null x then y else cons (car x) (f0 (cdr x) y)"
         else
           Printf.sprintf
             "f%d x y = if null x then f%d y x else f%d (cdr x) (cons (car x) y)" i
             (i - 1) i))
    "f7 [1, 2] [3]"

let random_corpus () =
  let rand = Random.State.make [| 20260809 |] in
  List.init 300 (fun _ -> QCheck.Gen.generate1 ~rand Gen.gen_any_program)

(* The results the pre-framework solver computed, frozen with their
   sources: each test re-renders its sections from [Escape.Fixpoint]. *)
let legacy_units =
  List.map
    (fun (name, check) -> Alcotest.test_case name `Quick check)
    (Fixpoint_table.cases Fixpoint_table.escape ~prefix:"matches-legacy-")

(* The flag analyses' verdicts and counters, pinned with their sources
   before their abstract walk was shared with the escape analysis: each
   test re-renders its sections ([test/flags.table]). *)
let flag_table_units =
  List.map
    (fun (name, check) -> Alcotest.test_case name `Quick check)
    (Fixpoint_table.cases Fixpoint_table.flags ~prefix:"flags-")

(* ---- memo staleness: pushed flags against the pull definition ------------ *)

(* Judge every given memo entry — and every entry its trace reaches — by
   the pull definition ([Stale_oracle]); the flag [Deps.touch] pushed
   must agree.  Returns how many entries were judged and how many of
   them were stale. *)
let judge_entries entries =
  let j = Stale_oracle.judge () in
  List.iter (fun e -> ignore (Stale_oracle.stale j e)) entries;
  List.fold_left
    (fun (n, k) (e, pulled) ->
      checkb "pushed flag is the pull verdict" pulled (Framework.Deps.stale e);
      (n + 1, if pulled then k + 1 else k))
    (0, 0) (Stale_oracle.verdicts j)

(* Every parameter's verdict of every definition, so that a flag solver
   has applied every value the table's verdicts apply. *)
let all_verdicts prog arity verdict =
  List.iter
    (fun (f, _) ->
      for arg = 1 to arity f do
        ignore (verdict f arg)
      done)
    prog.Nml.Infer.schemes

(* Solve [src] with the escape, usage and sharing solvers, run every
   global test, then judge each solver's complete memo entries: one
   (judged, stale) pair per solver, in that order. *)
let check_stale_flags src =
  let t = Fix.of_source src in
  ignore (Fixpoint_table.verdicts t);
  let escape = Fix.with_state t (fun () -> judge_entries (D.memo_entries ())) in
  let prog = infer src in
  let usage =
    let t = Usage.Solver.make prog in
    all_verdicts prog
      (fun f -> Ty.params (Usage.Solver.instance_ty t f))
      (fun f arg -> Usage.arg_verdict t f ~arg);
    Usage.Solver.with_state t (fun () -> judge_entries (Usage.D.memo_entries ()))
  in
  let sharing =
    let module S = Framework.Alias in
    let t = S.Solver.make prog in
    all_verdicts prog
      (fun f -> Ty.params (S.Solver.instance_ty t f))
      (fun f arg -> S.arg_verdict t f ~arg);
    S.Solver.with_state t (fun () -> judge_entries (S.D.memo_entries ()))
  in
  [ escape; usage; sharing ]

let stale_units =
  [
    Alcotest.test_case "stale-flags-match-pull-definition" `Slow (fun () ->
        let corpus =
          List.map snd Check.Harness.builtin_corpus
          @ (wide_chain_src :: recursion_nest_src :: random_corpus ())
        in
        let totals =
          List.fold_left
            (fun acc src ->
              List.map2 (fun (n, k) (n', k') -> (n + n', k + k')) acc (check_stale_flags src))
            [ (0, 0); (0, 0); (0, 0) ]
            corpus
        in
        (* neither verdict may be vacuous, for any of the three memos *)
        List.iter2
          (fun name (judged, stale) ->
            checkb (Printf.sprintf "%s: some stale (%d of %d)" name stale judged) true (stale > 0);
            checkb (name ^ ": some valid") true (judged > stale))
          [ "escape"; "usage"; "sharing" ] totals);
  ]

(* ---- the flag domains' memo ---------------------------------------------- *)

(* The flag domains apply through the same pending memo as the escape
   domain ([Framework.Pending]): it outlives one solver evaluation, its
   entries go stale through [Deps] and are recomputed at their next
   lookup, and a first run that was not re-entered stores the body's own
   value.  Each case runs in a fresh usage state. *)
let flag_memo_units =
  let module U = Usage.D in
  let module Deps = Framework.Deps in
  let fresh f = U.with_state (U.create_state ()) f in
  let int_int = Ty.Arrow (Ty.Int, Ty.Int) in
  let x = U.base ~ty:Ty.Int Usage.Flags.bot in
  [
    Alcotest.test_case "re-application-hits-the-memo" `Quick (fun () ->
        fresh @@ fun () ->
        let runs = ref 0 in
        let f = U.func ~ty:int_int ~flags:Usage.Flags.bot (fun y -> incr runs; y) in
        ignore (U.apply f x);
        ignore (U.apply f x);
        checki "one body run" 1 !runs;
        Alcotest.(check (pair int int)) "one hit, one miss" (1, 1) (U.memo_stats ()));
    Alcotest.test_case "not-re-entered-keeps-the-body-value" `Quick (fun () ->
        fresh @@ fun () ->
        let g = U.func ~ty:int_int ~flags:Usage.Flags.bot (fun y -> y) in
        let f = U.func ~ty:(Ty.Arrow (Ty.Int, int_int)) ~flags:Usage.Flags.bot (fun _ -> g) in
        checki "same id" g.U.id (U.apply f x).U.id);
    Alcotest.test_case "touch-stales-and-recomputes" `Quick (fun () ->
        fresh @@ fun () ->
        let s = Deps.source () in
        let runs = ref 0 in
        let f =
          U.func ~ty:int_int ~flags:Usage.Flags.bot (fun y ->
              incr runs;
              Deps.note_read s;
              y)
        in
        ignore (U.apply f x);
        ignore (U.apply f x);
        checki "cached" 1 !runs;
        checki "nothing invalidated" 0 (U.invalidations ());
        Deps.touch s;
        checkb "entry stale" true (List.for_all Deps.stale (U.memo_entries ()));
        ignore (U.apply f x);
        checki "recomputed" 2 !runs;
        checki "one invalidation" 1 (U.invalidations ()));
    Alcotest.test_case "usage-solver-invalidates" `Quick (fun () ->
        (* in a mutual recursion, a memo entry on a definition's value
           that did not change read the other definition in an earlier
           evaluation: the other's growth stales it, and its next lookup
           discards and recomputes it *)
        let prog =
          infer
            "letrec ev x = if null x then true else od (cdr x); od y = if null y then false \
             else ev (cdr y) in ev [1, 2]"
        in
        let t = Usage.Solver.make prog in
        all_verdicts prog
          (fun f -> Ty.params (Usage.Solver.instance_ty t f))
          (fun f arg -> Usage.arg_verdict t f ~arg);
        let s = Usage.Solver.stats t in
        checkb
          (Printf.sprintf "invalidated %d" s.Framework.Solver.stats_cache_invalidated)
          true
          (s.Framework.Solver.stats_cache_invalidated > 0));
  ]

(* ---- golden files --------------------------------------------------------- *)

let read_file path = In_channel.with_open_text path In_channel.input_all

(* under [dune runtest] the cwd is the test directory; under [dune exec]
   from the project root it is the root — resolve either way *)
let golden_dir = if Sys.file_exists "golden" then "golden" else "test/golden"

let examples_dir =
  let local = Filename.concat (Filename.concat ".." "examples") "programs" in
  if Sys.file_exists local then local else Filename.concat "examples" "programs"

(* the solver block of a golden .stats capture: the lines between
   "-- solver --" and the storage section *)
let solver_block text =
  let lines = String.split_on_char '\n' text in
  let rec after = function
    | [] -> []
    | "-- solver --" :: rest -> rest
    | _ :: rest -> after rest
  in
  let rec until acc = function
    | [] -> List.rev acc
    | l :: _ when String.length l >= 2 && String.sub l 0 2 = "--" -> List.rev acc
    | l :: rest -> until (l :: acc) rest
  in
  String.concat "\n" (until [] (after lines))

let golden_units =
  let programs =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".nml")
    |> List.sort String.compare
  in
  List.map
    (fun f ->
      let base = Filename.chop_suffix f ".nml" in
      Alcotest.test_case ("golden-" ^ base) `Quick (fun () ->
          let src = read_file (Filename.concat examples_dir f) in
          let t = Fix.make (infer src) in
          let report = Format.asprintf "%a@." Escape.Report.program t in
          checks "report byte-identical"
            (read_file (Filename.concat golden_dir (base ^ ".report")))
            report;
          let stats = Format.asprintf "%a" Fix.pp_stats (Fix.stats t) in
          checks "solver stats byte-identical"
            (solver_block (read_file (Filename.concat golden_dir (base ^ ".stats"))))
            stats;
          (* [nmlc optimize] and [nmlc compile -O --dump-bytecode] *)
          let r =
            Optimize.Transform.optimize ~options:Optimize.Transform.all (infer src)
          in
          checks "optimized program byte-identical"
            (read_file (Filename.concat golden_dir (base ^ ".optimized")))
            (Format.asprintf "%a@.%a@." Optimize.Transform.pp_report r Runtime.Ir.pp
               r.Optimize.Transform.ir);
          checks "bytecode byte-identical"
            (read_file (Filename.concat golden_dir (base ^ ".bytecode")))
            (Format.asprintf "%a@." Backend.Vm.pp_code
               (Backend.Vm.compile r.Optimize.Transform.ir))))
    programs

(* ---- lattice laws --------------------------------------------------------- *)

let laws (type a) name ~(elements : a list) ~(leq : a -> a -> bool)
    ~(join : a -> a -> a) ~(equal : a -> a -> bool) ~(bot : a) ~(top : a) =
  let all2 f = List.for_all (fun a -> List.for_all (f a) elements) elements in
  let all3 f =
    List.for_all
      (fun a -> List.for_all (fun b -> List.for_all (f a b) elements) elements)
      elements
  in
  checkb (name ^ ": leq reflexive") true (List.for_all (fun a -> leq a a) elements);
  checkb (name ^ ": leq antisymmetric") true
    (all2 (fun a b -> (not (leq a b && leq b a)) || equal a b));
  checkb (name ^ ": leq transitive") true
    (all3 (fun a b c -> (not (leq a b && leq b c)) || leq a c));
  checkb (name ^ ": join commutative") true
    (all2 (fun a b -> equal (join a b) (join b a)));
  checkb (name ^ ": join associative") true
    (all3 (fun a b c -> equal (join (join a b) c) (join a (join b c))));
  checkb (name ^ ": join idempotent") true
    (List.for_all (fun a -> equal (join a a) a) elements);
  checkb (name ^ ": join is an upper bound") true
    (all2 (fun a b -> leq a (join a b) && leq b (join a b)));
  checkb (name ^ ": join is the least upper bound") true
    (all3 (fun a b c -> (not (leq a c && leq b c)) || leq (join a b) c));
  checkb (name ^ ": bottom is least") true (List.for_all (leq bot) elements);
  checkb (name ^ ": top is greatest") true
    (List.for_all (fun a -> leq a top) elements)

let bits2 =
  [ (false, false); (true, false); (false, true); (true, true) ]

let usage_flags =
  List.map (fun (dep, use) -> { Usage.Flags.dep; use }) bits2

let spinelive_flags =
  List.concat_map
    (fun (dep, head) ->
      [
        { Spinelive.Flags.dep; head; tail = false };
        { Spinelive.Flags.dep; head; tail = true };
      ])
    bits2

let lattice_units =
  [
    Alcotest.test_case "besc-laws-exhaustive" `Quick (fun () ->
        List.iter
          (fun d ->
            laws
              (Printf.sprintf "B_e(d=%d)" d)
              ~elements:(B.all ~d) ~leq:B.leq ~join:B.join ~equal:B.equal
              ~bot:B.bottom ~top:(B.top ~d))
          [ 0; 1; 2; 3 ]);
    Alcotest.test_case "usage-flag-laws" `Quick (fun () ->
        laws "usage" ~elements:usage_flags ~leq:Usage.Flags.leq
          ~join:Usage.Flags.join ~equal:Usage.Flags.equal ~bot:Usage.Flags.bot
          ~top:Usage.Flags.top);
    Alcotest.test_case "spinelive-flag-laws" `Quick (fun () ->
        laws "spine-liveness" ~elements:spinelive_flags ~leq:Spinelive.Flags.leq
          ~join:Spinelive.Flags.join ~equal:Spinelive.Flags.equal
          ~bot:Spinelive.Flags.bot ~top:Spinelive.Flags.top);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200 ~name:"besc-join-monotone-qcheck"
         QCheck.(
           pair (pair (int_range 0 4) (int_range 0 4)) (pair (int_range 0 4) (int_range 0 4)))
         (fun ((a, b), (c, d)) ->
           (* join is monotone in both arguments over the chain *)
           let v i j = if i = 0 then B.zero else B.one j in
           let x = v (min a 1) b and y = v (min c 1) d in
           B.leq x (B.join x y) && B.leq y (B.join x y)));
  ]

(* ---- verdict witnesses ---------------------------------------------------- *)

let witness_src =
  "letrec append l m = if null l then m else cons (car l) (append (cdr l) m);\n\
  \       head l = car l;\n\
  \       len l = if null l then 0 else 1 + len (cdr l);\n\
  \       ignore2 x y = cons x nil\n\
   in append (head (cons (cons 1 nil) nil)) (cons (len (cons 2 nil)) (ignore2 3 4))"

let usage_v name arg =
  let t = Usage.Solver.make (infer witness_src) in
  Usage.verdict_name (Usage.arg_verdict t name ~arg)

let live_v name arg =
  let t = Spinelive.Solver.make (infer witness_src) in
  Spinelive.verdict_name (Spinelive.arg_verdict t name ~arg)

let product_v name arg =
  let t = Product.Solver.make (infer witness_src) in
  Product.verdict_name (Product.arg_report t name ~arg).Product.a_verdict

let witness_units =
  [
    Alcotest.test_case "usage-witnesses" `Quick (fun () ->
        checks "U(append,1)" "used" (usage_v "append" 1);
        checks "U(append,2)" "carried" (usage_v "append" 2);
        checks "U(head,1)" "used" (usage_v "head" 1);
        checks "U(len,1)" "consumed" (usage_v "len" 1);
        checks "U(ignore2,1)" "carried" (usage_v "ignore2" 1);
        checks "U(ignore2,2)" "unused" (usage_v "ignore2" 2));
    Alcotest.test_case "spinelive-witnesses" `Quick (fun () ->
        checks "L(append,1)" "spine-live" (live_v "append" 1);
        checks "L(append,2)" "live" (live_v "append" 2);
        checks "L(len,1)" "spine-live" (live_v "len" 1);
        checks "L(ignore2,2)" "dead" (live_v "ignore2" 2));
    Alcotest.test_case "spinelive-head-only-and-hints" `Quick (fun () ->
        (* head : 'a list -> 'a at its simplest instance keeps only the
           head cell; dead_spine_params surfaces it to the heap layer *)
        let t = Spinelive.Solver.make (infer witness_src) in
        checks "L(head,1)" "head-only"
          (Spinelive.verdict_name (Spinelive.arg_verdict t "head" ~arg:1));
        let hints = Spinelive.dead_spine_params t in
        checkb "head's parameter is hinted" true
          (match List.assoc_opt "head" hints with
          | Some idxs -> List.mem 1 idxs
          | None -> false);
        checkb "append is not hinted" true (List.assoc_opt "append" hints = None);
        let config = { Runtime.Heap.generational with Runtime.Heap.liveness_hints = hints } in
        checkb "heap reads the hint" true
          (Runtime.Heap.hinted_dead_spine config ~fname:"head" ~arg:1);
        checkb "heap rejects unhinted" false
          (Runtime.Heap.hinted_dead_spine config ~fname:"append" ~arg:1);
        checks "hints leave the config label alone" "gen/nursery=1024"
          (Runtime.Heap.config_name config));
    Alcotest.test_case "product-witnesses" `Quick (fun () ->
        checks "P(append,1)" "spine-scratch" (product_v "append" 1);
        checks "P(append,2)" "retained" (product_v "append" 2);
        checks "P(len,1)" "scratch" (product_v "len" 1);
        checks "P(ignore2,2)" "dead" (product_v "ignore2" 2));
    Alcotest.test_case "product-reduction-refines" `Quick (fun () ->
        (* ignore2 carries x whole: usage says Carried; escape says <1,0>.
           Neither side reduces.  But y is Unused, so even if the escape
           side over-approximated, the reduced escape component is <0,0>. *)
        let t = Product.Solver.make (infer witness_src) in
        let a = Product.arg_report t "ignore2" ~arg:2 in
        checks "reduced escape of an unused arg" "<0,0>" (B.to_string a.Product.a_esc));
    Alcotest.test_case "only-flag-analyses-evaluate-conditions" `Quick (fun () ->
        (* the one place the two kinds of domain walk differently: escape
           joins both branches without evaluating the condition (§3.4),
           so demanding [f] never demands [g]; a flag analysis folds the
           condition in as observation evidence and must demand it *)
        let prog =
          infer "letrec g x = null x; f l = if g l then nil else l in f [1]"
        in
        let names instances = List.map fst instances in
        let et = Fix.make prog in
        ignore (Fix.value et "f" None);
        Alcotest.(check (list string)) "escape demands f only" [ "f" ]
          (names (Fix.instances et));
        let ut = Usage.Solver.make prog in
        ignore (Usage.Solver.value ut "f" None);
        Alcotest.(check (list string)) "usage demands f and g" [ "f"; "g" ]
          (List.sort compare (names (Usage.Solver.instances ut))));
    Alcotest.test_case "lint007-fires-and-stays-quiet" `Quick (fun () ->
        let fire =
          "letrec head l = car l in head (cons 1 (cons 2 (cons 3 nil)))"
        in
        let quiet =
          "letrec len l = if null l then 0 else 1 + len (cdr l)\n\
           in len (cons 1 (cons 2 nil))"
        in
        let codes src =
          let o = Lint.Engine.run ~file:"<test>" src in
          List.filter
            (fun d -> String.equal d.Nml.Diagnostic.code "LINT007")
            o.Lint.Engine.findings
        in
        checki "firing witness" 1 (List.length (codes fire));
        checki "non-firing witness" 0 (List.length (codes quiet)));
  ]

(* ---- sharing: abstract witnesses and the concrete heap oracle -------------- *)

module Alias = Framework.Alias
module Ir = Runtime.Ir
module M = Runtime.Machine
module Vm = Backend.Vm

let alias_v ?inst name arg =
  let t = Alias.Solver.make (infer witness_src) in
  Alias.verdict_name (Alias.arg_verdict t ?inst name ~arg)

(* evaluate [let a = input in (g a, a)] so the call's result and its
   argument live in the same store, then read both roots back *)
let oracle_ir defs g input =
  let pair x y = Ir.App (Ir.App (Ir.Prim Nml.Ast.Pair, x), y) in
  Ir.Letrec
    ( defs,
      Ir.App
        ( Ir.Lam
            ("$oracle", pair (Ir.App (Ir.Var g, Ir.Var "$oracle")) (Ir.Var "$oracle")),
          input ) )

let machine_roots prog =
  let m = M.create () in
  match M.eval m prog with
  | M.Wpair a ->
      let res, arg, _ = M.cell_words m a in
      (Share_oracle.machine m, res, arg)
  | _ -> Alcotest.fail "oracle main did not produce a pair"

let vm_roots prog =
  let v = Vm.create () in
  match Vm.run_ir v prog with
  | Vm.Pair a ->
      let res, arg, _ = Vm.cell_values v a in
      (Share_oracle.vm v, res, arg)
  | _ -> Alcotest.fail "oracle main did not produce a pair"

let alias_units =
  [
    Alcotest.test_case "sharing-witnesses" `Quick (fun () ->
        (* append retains m's spine in its result but rebuilds l's *)
        checks "S(append,1)" "unshared" (alias_v "append" 1);
        checks "S(append,2)" "spine-shared" (alias_v "append" 2);
        (* the verdict is instance-indexed: at [int list -> int] head's
           element owns no cells, at [int list list -> int list] or a
           pair-element instance the element is the argument's heap *)
        checks "S(head,1) @ int list" "unshared" (alias_v "head" 1);
        checks "S(head,1) @ int list list" "spine-shared"
          (alias_v
             ~inst:(Ty.Arrow (Ty.List (Ty.List Ty.Int), Ty.List Ty.Int))
             "head" 1);
        checks "S(head,1) @ (int*int) list" "spine-shared"
          (alias_v
             ~inst:(Ty.Arrow (Ty.List (Ty.Prod (Ty.Int, Ty.Int)), Ty.Prod (Ty.Int, Ty.Int)))
             "head" 1);
        (* len consumes l down to a base value *)
        checks "S(len,1)" "unshared" (alias_v "len" 1);
        checks "S(ignore2,1)" "unshared" (alias_v "ignore2" 1));
    Alcotest.test_case "oracle-sees-real-sharing" `Quick (fun () ->
        (* the concrete walker is not vacuous: a cons onto the argument
           shares every argument cell with the result, a structural copy
           shares none — on both backends *)
        let ir_of src =
          match Ir.of_program (Nml.Surface.of_string src) with
          | Ir.Letrec (ds, Ir.App (Ir.Var g, input)) -> oracle_ir ds g input
          | _ -> Alcotest.fail "unexpected program shape"
        in
        let extend = ir_of "letrec f l = cons 1 l in f [2, 3]" in
        let copy =
          ir_of
            "letrec f l = if null l then nil else cons (car l) (f (cdr l)) \
             in f [2, 3]"
        in
        let overlap_card (c, res, arg) =
          Share_oracle.IS.cardinal (Share_oracle.overlap c res arg)
        in
        checki "machine extend overlap" 2 (overlap_card (machine_roots extend));
        checki "machine copy overlap" 0 (overlap_card (machine_roots copy));
        checki "vm extend overlap" 2 (overlap_card (vm_roots extend));
        checki "vm copy overlap" 0 (overlap_card (vm_roots copy)));
  ]

let qcheck_sharing_oracle =
  QCheck.Test.make ~count:250
    ~name:"sharing-verdicts-over-approximate-the-heap"
    (QCheck.make Gen.gen_any_program ~print:Fun.id)
    (fun src ->
      match
        let s = Nml.Surface.of_string src in
        let prog = Nml.Infer.infer_program s in
        let t = Alias.Solver.make prog in
        (* judge [f] at the ground instance of the actual call, the one
           the concrete run below executes — the generated [f] may well
           generalize (['a list -> 'a list]) while running over pairs *)
        let inst =
          match (Nml.Infer.main_ground prog).Nml.Tast.desc with
          | Nml.Tast.App (fe, _) -> fe.Nml.Tast.ty
          | _ -> raise Exit
        in
        let verdict = Alias.arg_verdict t ~inst "f" ~arg:1 in
        match Ir.of_program s with
        | Ir.Letrec (defs, Ir.App (Ir.Var g, input)) ->
            let prog = oracle_ir defs g input in
            let probe (c, res, arg) =
              let ov = Share_oracle.overlap c res arg in
              let sound =
                match verdict with
                | Alias.Unshared -> Share_oracle.IS.is_empty ov
                | Alias.Shared_elem | Alias.Shared_spine -> true
              in
              (sound, Share_oracle.IS.cardinal ov, Share_oracle.shared_count c res)
            in
            let okm, novm, nshm = probe (machine_roots prog) in
            let okv, novv, nshv = probe (vm_roots prog) in
            (* the verdict over-approximates on both backends, and the
               backends agree on the concrete sharing structure *)
            okm && okv && novm = novv && nshm = nshv
        | _ -> raise Exit
      with
      | r -> r
      | exception _ -> QCheck.assume_fail ())

(* ---- product consistency with the component analyses ---------------------- *)

let usage_rank = function
  | Usage.Unused -> 0
  | Usage.Carried | Usage.Consumed -> 1
  | Usage.Used -> 2

let check_product_consistency src =
  let prog = infer src in
  let pt = Product.Solver.make prog in
  let ut = Usage.Solver.make prog in
  let et = Fix.make prog in
  List.iter
    (fun (name, _) ->
      let m = Ty.params (Product.Solver.instance_ty pt name) in
      for i = 1 to m do
        let a = Product.arg_report pt name ~arg:i in
        let u_alone = Usage.arg_verdict ut name ~arg:i in
        let e_alone = (An.global et name ~arg:i).An.esc in
        (* the reduced components are never coarser than the analyses
           run alone *)
        checkb
          (Printf.sprintf "usage component of (%s,%d) refines" name i)
          true
          (usage_rank a.Product.a_usage <= usage_rank u_alone);
        checkb
          (Printf.sprintf "escape component of (%s,%d) refines" name i)
          true
          (B.leq a.Product.a_esc e_alone)
      done)
    prog.Nml.Infer.schemes

let product_units =
  List.map
    (fun (name, src) ->
      Alcotest.test_case ("product-refines-" ^ name) `Quick (fun () ->
          check_product_consistency src))
    Check.Harness.builtin_corpus

(* ---- cache: namespacing, schema, warm-run identity ------------------------ *)

let tmp_counter = ref 0

let with_dir prefix f =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "nmlc-fw-%s-%d-%d" prefix (Unix.getpid ()) !tmp_counter)
  in
  Sys.mkdir d 0o755;
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun x -> rm_rf (Filename.concat path x)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> try rm_rf d with Sys_error _ -> ()) (fun () -> f d)

let keys_of ?analysis prog =
  List.map fst (Cache.Skey.sccs (Cache.Skey.of_program ?analysis prog))

let cache_units =
  [
    Alcotest.test_case "keys-deterministic" `Quick (fun () ->
        let prog () = infer Examples.partition_sort_program in
        checkb "same program, same keys" true (keys_of (prog ()) = keys_of (prog ())));
    Alcotest.test_case "keys-namespaced-per-analysis" `Quick (fun () ->
        let prog = infer Examples.partition_sort_program in
        let escape = keys_of prog in
        checkb "escape default namespace" true (escape = keys_of ~analysis:"escape" prog);
        List.iter
          (fun a ->
            let other = keys_of ~analysis:a prog in
            checkb (a ^ " keys all differ from escape") true
              (List.for_all (fun k -> not (List.mem k escape)) other))
          [ "usage"; "spine-liveness"; "escape-x-usage"; "sharing" ]);
    Alcotest.test_case "schema-is-v2" `Quick (fun () ->
        checks "skey schema" "nmlc/summary-cache-v2" Cache.Skey.schema_version);
    Alcotest.test_case "old-schema-record-is-a-clean-miss" `Quick (fun () ->
        (* a record with the v1 stamp (and no analysis field) must be
           rejected by the decoder, not mis-replayed *)
        with_dir "v1" @@ fun dir ->
        let prog = infer Examples.rev_program in
        let store = Cache.Store.create dir in
        let keys = Cache.Skey.sccs (Cache.Skey.of_program prog) in
        let module J = Nml.Json in
        (* plant stale records under the *current* keys, as an interrupted
           upgrade could: old stamp, old shape *)
        List.iter
          (fun (key, members) ->
            Cache.Store.save store ~key
              (J.Obj
                 [
                   ("schema", J.Str "nmlc/summary-cache-v1");
                   ("key", J.Str key);
                   ( "defs",
                     J.Arr
                       (List.map
                          (fun m ->
                            J.Obj
                              [
                                ("name", J.Str m);
                                ("inst", J.Str "int list -> int list");
                                ("args", J.Arr []);
                              ])
                          members) );
                 ]))
          keys;
        ignore (Cache.Store.flush store);
        let o = Cache.Summary.analyze ~store prog in
        checki "every SCC misses" (List.length keys) o.Cache.Engine.scc_misses;
        checkb "a real solve happened" true (o.Cache.Engine.evaluations > 0);
        (* and the store has healed: the rerun is fully warm *)
        let warm = Cache.Summary.analyze ~store prog in
        checki "healed store serves every SCC" (List.length keys)
          warm.Cache.Engine.scc_hits;
        checki "zero evaluations when warm" 0 warm.Cache.Engine.evaluations);
    Alcotest.test_case "corrupt-record-is-a-clean-miss" `Quick (fun () ->
        with_dir "corrupt" @@ fun dir ->
        let prog = infer Examples.rev_program in
        let store = Cache.Store.create dir in
        let keys = Cache.Skey.sccs (Cache.Skey.of_program ~analysis:"usage" prog) in
        let module J = Nml.Json in
        List.iter
          (fun (key, _) ->
            Cache.Store.save store ~key (J.Obj [ ("garbage", J.Bool true) ]))
          keys;
        ignore (Cache.Store.flush store);
        let o = Engine.analyze Registry.usage_spec ~store prog in
        checki "every SCC misses" (List.length keys) o.Engine.scc_misses;
        let warm = Engine.analyze Registry.usage_spec ~store prog in
        checki "healed rerun is warm" 0 warm.Engine.evaluations);
    Alcotest.test_case "warm-rerun-is-free-for-every-analysis" `Quick (fun () ->
        with_dir "warm" @@ fun dir ->
        let store = Cache.Store.create dir in
        let prog () = infer Examples.partition_sort_program in
        List.iter
          (fun (e : Registry.entry) ->
            let cold = e.Registry.run ~store ~path:"" (prog ()) in
            checkb (e.Registry.name ^ " cold run solves") true
              (cold.Cache.Batch.evaluations > 0);
            let warm = e.Registry.run ~store ~path:"" (prog ()) in
            checki (e.Registry.name ^ " warm evaluations") 0 warm.Cache.Batch.evaluations;
            checki (e.Registry.name ^ " warm misses") 0 warm.Cache.Batch.scc_misses;
            checks (e.Registry.name ^ " warm output is identical")
              cold.Cache.Batch.output warm.Cache.Batch.output)
          Registry.all);
    Alcotest.test_case "record-carries-the-analysis-stamp" `Quick (fun () ->
        let spec = Registry.spinelive_spec in
        let prog = infer Examples.rev_program in
        let t = Spinelive.Solver.make prog in
        let defs = List.map (fun (n, _) -> Spinelive.report t n) prog.Nml.Infer.schemes in
        let j = Engine.record_to_json spec ~key:"k" defs in
        let module J = Nml.Json in
        (match J.member "analysis" j with
        | Some (J.Str s) -> checks "stamp" "spine-liveness" s
        | _ -> Alcotest.fail "missing analysis stamp");
        let members = List.map (fun (n, _) -> n) prog.Nml.Infer.schemes in
        checkb "decodes under its own spec" true
          (Engine.record_of_json spec ~key:"k" ~members j <> None);
        checkb "the usage spec refuses it" true
          (Engine.record_of_json Registry.usage_spec ~key:"k" ~members j = None));
  ]

(* ---- the cache record format, pinned ------------------------------------------

   A store written by an earlier build must stay warm: these are the
   records the usage, spine-liveness and sharing codecs write for
   [pin_src], byte for byte.  Each must decode, re-encode to the same
   bytes, and decode to the reports a fresh solve computes. *)

let pin_src =
  "letrec append l m = if null l then m else cons (car l) (append (cdr l) m);\n\
  \       pick l m = if null l then m else l;\n\
  \       ignore2 x y = cons (car x) nil\n\
   in pick (append (cons 1 nil) (cons 2 nil)) (ignore2 (cons 3 nil) (cons 4 nil))"

let pin_members = [ "append"; "pick"; "ignore2" ]

let usage_record = {|{"schema": "nmlc/summary-cache-v2", "analysis": "usage", "key": "k", "defs": [
  {"name": "append", "inst": "int list -> int list -> int list", "args": [
    [
      1,
      "used"
    ],
    [
      2,
      "carried"
    ]
  ]},
  {"name": "pick", "inst": "int list -> int list -> int list", "args": [
    [
      1,
      "used"
    ],
    [
      2,
      "carried"
    ]
  ]},
  {"name": "ignore2", "inst": "int list -> int -> int list", "args": [
    [
      1,
      "used"
    ],
    [
      2,
      "unused"
    ]
  ]}
]}
|}

let spinelive_record = {|{"schema": "nmlc/summary-cache-v2", "analysis": "spine-liveness", "key": "k", "defs": [
  {"name": "append", "inst": "int list -> int list -> int list", "args": [
    [
      1,
      "spine-live"
    ],
    [
      2,
      "live"
    ]
  ]},
  {"name": "pick", "inst": "int list -> int list -> int list", "args": [
    [
      1,
      "live"
    ],
    [
      2,
      "live"
    ]
  ]},
  {"name": "ignore2", "inst": "int list -> int -> int list", "args": [
    [
      1,
      "head-only"
    ],
    [
      2,
      "dead"
    ]
  ]}
]}
|}

let sharing_record = {|{"schema": "nmlc/summary-cache-v2", "analysis": "sharing", "key": "k", "defs": [
  {"name": "append", "inst": "int list -> int list -> int list", "args": [
    [
      1,
      "unshared"
    ],
    [
      2,
      "spine-shared"
    ]
  ], "pairs": []},
  {"name": "pick", "inst": "int list -> int list -> int list", "args": [
    [
      1,
      "spine-shared"
    ],
    [
      2,
      "spine-shared"
    ]
  ], "pairs": [
    [
      1,
      2
    ]
  ]},
  {"name": "ignore2", "inst": "int list -> int -> int list", "args": [
    [
      1,
      "unshared"
    ],
    [
      2,
      "unshared"
    ]
  ], "pairs": []}
]}
|}

let render_reports pp defs =
  Format.asprintf "@[<v 0>%a@]" (Format.pp_print_list pp) defs

let check_pinned (type s) (spec : s Engine.spec) ~pp literal =
  let module J = Nml.Json in
  let name = spec.Engine.analysis in
  match Engine.record_of_json spec ~key:"k" ~members:pin_members (J.parse literal) with
  | None -> Alcotest.fail (name ^ ": the pinned record does not decode")
  | Some defs ->
      checks (name ^ " re-encodes byte for byte") literal
        (J.to_string (Engine.record_to_json spec ~key:"k" defs));
      let session = spec.Engine.session (infer pin_src) in
      checks (name ^ " decodes to the solved reports")
        (render_reports pp (List.map session.Engine.summarize pin_members))
        (render_reports pp defs)

(* Every record the codec writes over the builtin corpus decodes and
   re-encodes to the same bytes. *)
let check_corpus_roundtrip (type s) (spec : s Engine.spec) =
  let module J = Nml.Json in
  List.iter
    (fun (name, src) ->
      let prog = infer src in
      let members = List.map fst prog.Nml.Infer.schemes in
      let o = Engine.analyze spec prog in
      let text = J.to_string (Engine.record_to_json spec ~key:name o.Engine.summaries) in
      match Engine.record_of_json spec ~key:name ~members (J.parse text) with
      | None -> Alcotest.fail (spec.Engine.analysis ^ ": " ^ name ^ " does not decode")
      | Some defs ->
          checks
            (spec.Engine.analysis ^ " round-trips " ^ name)
            text
            (J.to_string (Engine.record_to_json spec ~key:name defs)))
    Check.Harness.builtin_corpus

let check_names name ~to_name ~of_name verdicts =
  List.iter
    (fun v -> checkb (name ^ " " ^ to_name v ^ " parses back") true (of_name (to_name v) = Some v))
    verdicts;
  let names = List.map to_name verdicts in
  checki (name ^ " names are distinct") (List.length names)
    (List.length (List.sort_uniq String.compare names))

let codec_units =
  [
    Alcotest.test_case "pinned-usage-record" `Quick (fun () ->
        check_pinned Registry.usage_spec ~pp:Usage.pp_def_report usage_record);
    Alcotest.test_case "pinned-spine-liveness-record" `Quick (fun () ->
        check_pinned Registry.spinelive_spec ~pp:Spinelive.pp_def_report spinelive_record);
    Alcotest.test_case "pinned-sharing-record" `Quick (fun () ->
        check_pinned Registry.alias_spec ~pp:Framework.Alias.pp_def_report sharing_record);
    Alcotest.test_case "corpus-records-round-trip" `Quick (fun () ->
        check_corpus_roundtrip Registry.usage_spec;
        check_corpus_roundtrip Registry.spinelive_spec;
        check_corpus_roundtrip Registry.alias_spec);
    Alcotest.test_case "verdict-names-parse-back" `Quick (fun () ->
        check_names "usage" ~to_name:Usage.verdict_name ~of_name:Usage.verdict_of_name
          Usage.[ Unused; Carried; Consumed; Used ];
        check_names "spine-liveness" ~to_name:Spinelive.verdict_name
          ~of_name:Spinelive.verdict_of_name
          Spinelive.[ Dead; Head_only; Spine_live; Live ];
        check_names "sharing" ~to_name:Framework.Alias.verdict_name
          ~of_name:Framework.Alias.verdict_of_name
          Framework.Alias.[ Unshared; Shared_elem; Shared_spine ];
        check_names "escape-x-usage" ~to_name:Product.verdict_name
          ~of_name:Product.verdict_of_name
          Product.[ Dead; Scratch; Spine_scratch; Retained ]);
  ]

(* ---- registry surface ------------------------------------------------------ *)

let registry_units =
  [
    Alcotest.test_case "registry-names-and-aliases" `Quick (fun () ->
        checkb "escape registered" true (Registry.find "escape" <> None);
        checkb "strictness aliases usage" true
          (match Registry.find "strictness" with
          | Some e -> String.equal e.Registry.name "usage"
          | None -> false);
        checkb "product aliases escape-x-usage" true
          (match Registry.find "product" with
          | Some e -> String.equal e.Registry.name "escape-x-usage"
          | None -> false);
        checkb "unknown name rejected" true (Registry.find "points-to" = None));
  ]

let () =
  Alcotest.run "framework"
    [
      ("legacy-differential", legacy_units);
      ("flag-table", flag_table_units);
      ("stale-oracle", stale_units);
      ("flag-memo", flag_memo_units);
      ("golden", golden_units);
      ("lattice-laws", lattice_units);
      ("witnesses", witness_units);
      ("sharing", alias_units);
      ( "sharing-oracle",
        [ QCheck_alcotest.to_alcotest qcheck_sharing_oracle ] );
      ("product", product_units);
      ("cache", cache_units);
      ("codec", codec_units);
      ("registry", registry_units);
    ]

(* Tests for the worklist fixpoint engine: the call-graph/SCC machinery it
   schedules with, the verdicts a retired round-robin engine agreed on
   (fixed programs and a random corpus, frozen in [test/fixpoints.table]),
   the paper's appendix values, isolation of concurrently live solvers
   (every solver owns a private Dvalue.state, including across domains),
   and the efficiency the engine exists for — one evaluation per
   non-recursive definition. *)

module B = Escape.Besc
module D = Escape.Dvalue
module Fix = Escape.Fixpoint
module An = Escape.Analysis
module Cg = Nml.Callgraph
module Surface = Nml.Surface
module Ty = Nml.Ty
module Examples = Nml.Examples

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let infer src = Nml.Infer.infer_program (Surface.of_string src)

(* ---- call graph / SCC ---------------------------------------------------- *)

let mutual_src =
  Examples.wrap
    [
      "take xs = if null xs then nil else cons (car xs) (skip (cdr xs))";
      "skip xs = if null xs then nil else take (cdr xs)";
      "len xs = if null xs then 0 else 1 + len (cdr xs)";
    ]
    "len (take [1, 2, 3, 4])"

let callgraph_units =
  [
    Alcotest.test_case "scc-order-is-dependencies-first" `Quick (fun () ->
        (* 0 -> 1 -> 2, 2 -> 1 (cycle {1,2}), 3 isolated *)
        let succs = function 0 -> [ 1 ] | 1 -> [ 2 ] | 2 -> [ 1 ] | _ -> [] in
        let comps = Cg.Scc.compute ~n:4 ~succs in
        checki "count" 3 (List.length comps);
        let pos v =
          let rec go i = function
            | [] -> -1
            | c :: rest -> if List.mem v c then i else go (i + 1) rest
          in
          go 0 comps
        in
        checkb "cycle before its reader" true (pos 1 < pos 0);
        checkb "1 and 2 share a component" true (pos 1 = pos 2));
    Alcotest.test_case "out-of-range-successors-ignored" `Quick (fun () ->
        let comps = Cg.Scc.compute ~n:2 ~succs:(fun _ -> [ 5; -1 ]) in
        checki "count" 2 (List.length comps));
    Alcotest.test_case "refs-and-recursion" `Quick (fun () ->
        let g = Cg.of_program (infer mutual_src) in
        checkb "take refs skip" true (List.mem "skip" (Cg.refs g "take"));
        checkb "mutual pair is recursive" true
          (Cg.is_recursive g "take" && Cg.is_recursive g "skip");
        checkb "len is recursive (self)" true (Cg.is_recursive g "len");
        checkb "unknown name" false (Cg.is_recursive g "nosuch"));
    Alcotest.test_case "program-sccs" `Quick (fun () ->
        let g = Cg.of_program (infer Examples.partition_sort_program) in
        (* append and split are self-cycles; ps depends on both *)
        let comps = Cg.sccs g in
        checki "three components" 3 (List.length comps);
        checks "ps last" "ps" (List.hd (List.nth comps 2)));
  ]

(* ---- differential: the verdicts both engines agreed on -------------------- *)

(* While a round-robin engine, which dropped its memo every pass, still
   existed, these programs checked that selective invalidation reaches
   its fixpoint; the table keeps what both engines computed. *)
let differential_units =
  List.map
    (fun (name, check) -> Alcotest.test_case name `Quick check)
    (Fixpoint_table.cases Fixpoint_table.escape ~prefix:"engines-agree-")

(* ---- appendix values under the worklist engine --------------------------- *)

let appendix_units =
  [
    Alcotest.test_case "appendix-values" `Quick (fun () ->
        let t = Fix.of_source Examples.partition_sort_program in
        let g name arg = B.to_string (An.global t name ~arg).An.esc in
        checks "G(append,1)" "<1,0>" (g "append" 1);
        checks "G(append,2)" "<1,1>" (g "append" 2);
        checks "G(split,1)" "<0,0>" (g "split" 1);
        checks "G(split,2)" "<1,0>" (g "split" 2);
        checks "G(split,3)" "<1,1>" (g "split" 3);
        checks "G(split,4)" "<1,1>" (g "split" 4);
        checks "G(ps,1)" "<1,0>" (g "ps" 1);
        checkb "not capped" true (not (Fix.capped t)));
    Alcotest.test_case "worklist-single-pass-on-appendix" `Quick (fun () ->
        let t = Fix.of_source Examples.partition_sort_program in
        ignore (Fix.value t "ps" None);
        checkb "few passes" true (Fix.passes t <= 2));
  ]

(* ---- solver isolation (per-solver Dvalue state) --------------------------- *)

let isolation_units =
  [
    Alcotest.test_case "interleaved-solvers-match-solo" `Quick (fun () ->
        (* solo reference runs *)
        let solo_a =
          B.to_string
            (An.global (Fix.of_source Examples.partition_sort_program) "append" ~arg:2)
              .An.esc
        in
        let solo_b =
          B.to_string
            (An.global (Fix.of_source Examples.map_pair_program) "map" ~arg:2).An.esc
        in
        (* two live solvers with interleaved queries: each touches
           generations and fills a memo in its own private state, so
           neither may perturb the other *)
        let a = Fix.of_source Examples.partition_sort_program in
        let b = Fix.of_source Examples.map_pair_program in
        let a1 = B.to_string (An.global a "append" ~arg:2).An.esc in
        let b1 = B.to_string (An.global b "map" ~arg:2).An.esc in
        let a2 = B.to_string (An.global a "append" ~arg:2).An.esc in
        let b2 = B.to_string (An.global b "map" ~arg:2).An.esc in
        checks "a matches solo" solo_a a1;
        checks "b matches solo" solo_b b1;
        checks "a stable across interleaving" a1 a2;
        checks "b stable across interleaving" b1 b2);
    Alcotest.test_case "per-solver-stats-are-cold" `Quick (fun () ->
        (* every solver starts from its own cold state: the second,
           interleaved solver reports exactly the counters of a solo run,
           not the residue of the first solver's work *)
        let t = Fix.of_source Examples.partition_sort_program in
        ignore (Fix.value t "ps" None);
        let misses1 = (Fix.stats t).Fix.stats_cache_misses in
        let t2 = Fix.of_source Examples.partition_sort_program in
        ignore (Fix.value t2 "ps" None);
        let misses2 = (Fix.stats t2).Fix.stats_cache_misses in
        checkb "a cold run misses" true (misses1 > 0);
        checki "cold start reproduced" misses1 misses2);
    Alcotest.test_case "with-state-scopes-the-engine" `Quick (fun () ->
        (* chain bound and counters are confined to the installed state *)
        let s1 = D.create_state () and s2 = D.create_state () in
        D.with_state s1 (fun () -> D.ensure_d 3);
        checki "s1 sees its bound" 3 (D.with_state s1 D.current_d);
        checki "s2 unaffected" 0 (D.with_state s2 D.current_d);
        D.with_state s2 (fun () ->
            checki "s2 stays cold inside its scope" 0 (D.current_d ());
            checki "s1 keeps its bound across scopes" 3 (D.with_state s1 D.current_d)));
    Alcotest.test_case "concurrent-domains-match-solo" `Quick (fun () ->
        (* shared-nothing across domains: concurrent solvers on separate
           domains reproduce the solo verdicts and solo cost counters *)
        let solve src f arg () =
          let t = Fix.of_source src in
          let esc = B.to_string (An.global t f ~arg).An.esc in
          (esc, Fix.evaluations t)
        in
        let job_a = solve Examples.partition_sort_program "ps" 1 in
        let job_b = solve Examples.map_pair_program "map" 2 in
        let solo_a = job_a () and solo_b = job_b () in
        let da = Domain.spawn job_a and db = Domain.spawn job_b in
        let ra = Domain.join da and rb = Domain.join db in
        checks "a verdict" (fst solo_a) (fst ra);
        checks "b verdict" (fst solo_b) (fst rb);
        checki "a evaluations" (snd solo_a) (snd ra);
        checki "b evaluations" (snd solo_b) (snd rb));
  ]

(* ---- efficiency: the reason the engine exists ----------------------------- *)

let wide_chain n =
  Examples.wrap
    (List.init n (fun i ->
         if i = 0 then "w0 x = cons 0 x"
         else Printf.sprintf "w%d x = w%d (cons %d x)" i (i - 1) i))
    (Printf.sprintf "w%d [1, 2]" (n - 1))

let efficiency_units =
  [
    Alcotest.test_case "worklist-is-linear-on-wide-chain" `Quick (fun () ->
        let n = 12 in
        let t = Fix.of_source ~max_iters:1000 (wide_chain n) in
        ignore (Fix.value t (Printf.sprintf "w%d" (n - 1)) None);
        checkb "not capped" false (Fix.capped t);
        checki "worklist is linear" n (Fix.evaluations t));
    Alcotest.test_case "non-recursive-entries-evaluated-once" `Quick (fun () ->
        let t = Fix.of_source (wide_chain 6) in
        ignore (Fix.value t "w5" None);
        let s = Fix.stats t in
        checki "entries" 6 s.Fix.stats_entries;
        checki "evaluations" 6 s.Fix.stats_evaluations;
        checki "one pass" 1 s.Fix.stats_passes;
        checki "six singleton sccs" 6 s.Fix.stats_sccs;
        checki "largest scc" 1 s.Fix.stats_largest_scc);
  ]

(* ---- per-solver definition facts ----------------------------------------- *)

let memo_units =
  [
    Alcotest.test_case "instance-ty-is-memoized" `Quick (fun () ->
        let src = Examples.map_pair_program in
        let t = Fix.of_source src in
        let first = Fix.instance_ty t "map" in
        let again = Fix.instance_ty t "map" in
        checkb "the same type on a repeat call" true (first == again);
        checks "prints like the simplest instance"
          (Ty.to_string (Nml.Infer.simplest_instance (infer src) "map"))
          (Ty.to_string again);
        (match Fix.instance_ty t "no_such_definition" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "unknown definitions are rejected"));
    Alcotest.test_case "memo-is-per-solver" `Quick (fun () ->
        (* both programs define [f], at different types *)
        let a = Fix.of_source (Examples.wrap [ "f x = x + 1" ] "f 1") in
        let b = Fix.of_source (Examples.wrap [ "f l = cons 1 l" ] "f nil") in
        let fa = Ty.to_string (Fix.instance_ty a "f") in
        let fb = Ty.to_string (Fix.instance_ty b "f") in
        checks "a's f" "int -> int" fa;
        checks "b's f" "int list -> int list" fb;
        checks "a unaffected by b" fa (Ty.to_string (Fix.instance_ty a "f"));
        ignore (Fix.value a "f" None);
        checks "value demanded at a's instance" fa
          (Ty.to_string (List.assoc "f" (Fix.instances a))));
  ]

(* ---- one chain bound ------------------------------------------------------ *)

let examples_dir =
  let local = Filename.concat (Filename.concat ".." "examples") "programs" in
  if Sys.file_exists local then local else Filename.concat "examples" "programs"

let example_programs () =
  Sys.readdir examples_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".nml")
  |> List.sort String.compare
  |> List.map (fun f ->
         (f, In_channel.with_open_text (Filename.concat examples_dir f) In_channel.input_all))

let bound_units =
  [
    Alcotest.test_case "domain-state-holds-the-solver-bound" `Quick (fun () ->
        (* the solver hands its chain bound to the escape domain only
           through [ensure_d]: after solving [main] and every global test,
           the domain state reads the bound the solver reports *)
        List.iter
          (fun (name, src) ->
            let t = Fix.of_source src in
            ignore (Fix.main_value t);
            List.iter
              (fun (f, _) -> ignore (An.global_all t f))
              (Fix.program t).Nml.Infer.schemes;
            checki name (Fix.d t) (Fix.with_state t D.current_d))
          (Check.Harness.builtin_corpus @ example_programs ()));
  ]

let () =
  Alcotest.run "solver"
    [
      ("callgraph", callgraph_units);
      ("differential", differential_units);
      ("appendix", appendix_units);
      ("isolation", isolation_units);
      ("efficiency", efficiency_units);
      ("memo", memo_units);
      ("bound", bound_units);
    ]

(* Tests for the optimizer: last-use analysis, the DCONS transformation
   (checked against the paper's transformed programs), arena annotations,
   and — most importantly — semantic preservation: every optimized
   program computes the same value as the original, validated with the
   machine's arena-safety checks enabled. *)

module L = Optimize.Liveness
module R = Optimize.Reuse
module T = Optimize.Transform
module Sh = Optimize.Shape
module M = Runtime.Machine
module Ir = Runtime.Ir
module Stats = Runtime.Stats
module Eval = Nml.Eval
module Surface = Nml.Surface
module P = Nml.Parser
module Ex = Nml.Examples

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let value : Eval.value Alcotest.testable =
  Alcotest.testable (fun ppf v -> Eval.pp_value ppf v) Eval.equal_value

let solver src = Escape.Fixpoint.of_source src

(* parse "x y = rhs" definitions the way Surface does *)
let def_body src name =
  let surface = Surface.of_string (Ex.wrap [ src ] "0") in
  snd (Sh.strip_lams (Surface.def surface name))

(* ---- shape helpers --------------------------------------------------------- *)

let shape_tests =
  [
    Alcotest.test_case "literal-depth" `Quick (fun () ->
        checki "flat" 1 (Sh.literal_depth (P.parse "[1, 2]"));
        checki "nested" 2 (Sh.literal_depth (P.parse "[[1], [2]]"));
        checki "empty" 1 (Sh.literal_depth (P.parse "nil"));
        checki "mixed" 1 (Sh.literal_depth (P.parse "[x, [1]]"));
        checki "not-literal" 0 (Sh.literal_depth (P.parse "cons 1 x")));
    Alcotest.test_case "suffix" `Quick (fun () ->
        checkb "x" true (Sh.is_suffix_of "x" (P.parse "x"));
        checkb "cdr" true (Sh.is_suffix_of "x" (P.parse "cdr (cdr x)"));
        checkb "car" false (Sh.is_suffix_of "x" (P.parse "car x"));
        checkb "other" false (Sh.is_suffix_of "x" (P.parse "y")));
    Alcotest.test_case "head-and-args" `Quick (fun () ->
        let h, args = Sh.head_and_args (P.parse "f 1 2 3") in
        checkb "head" true (match h with Nml.Ast.Var (_, "f") -> true | _ -> false);
        checki "args" 3 (List.length args));
  ]

(* ---- liveness --------------------------------------------------------------- *)

let liveness_tests =
  [
    Alcotest.test_case "append-one-eligible" `Quick (fun () ->
        let body = def_body Ex.append_def "append" in
        let sites = L.eligible_sites body ~param:"x" in
        checki "eligible" 1 (List.length sites);
        checkb "guarded" true (List.for_all (fun s -> s.L.nil_guarded) sites));
    Alcotest.test_case "append-y-eligible-but-useless" `Quick (fun () ->
        (* y is also dead after the cons, but it is not nil-guarded by a
           test on y *)
        let body = def_body Ex.append_def "append" in
        let sites = L.eligible_sites body ~param:"y" in
        checkb "not nil-guarded" true (List.for_all (fun s -> not s.L.nil_guarded) sites));
    Alcotest.test_case "split-two-exclusive" `Quick (fun () ->
        let body = def_body Ex.split_def "split" in
        let sites =
          L.eligible_sites body ~param:"x" |> List.filter (fun s -> s.L.nil_guarded)
        in
        checki "eligible" 2 (List.length sites);
        match sites with
        | [ a; b ] -> checkb "exclusive" true (L.exclusive a b)
        | _ -> Alcotest.fail "expected two sites");
    Alcotest.test_case "ps-eligible-through-let" `Quick (fun () ->
        let body = def_body Ex.ps_def "ps" in
        let sites =
          L.eligible_sites body ~param:"x" |> List.filter (fun s -> s.L.nil_guarded)
        in
        checki "one site" 1 (List.length sites));
    Alcotest.test_case "use-after-cons-blocks" `Quick (fun () ->
        (* x is used after the cons (in the outer sum) *)
        let body = def_body "f x = sum (cons (car x) nil) + sum x" "f" in
        checki "none" 0 (List.length (L.eligible_sites body ~param:"x")));
    Alcotest.test_case "lambda-defeats" `Quick (fun () ->
        (* the inner lambda is passed as an argument, not immediately
           applied, so its body may run at any time *)
        let body =
          def_body "f x = (lambda(h). h 0) (lambda(y). cons (car x) nil)" "f"
        in
        checki "none" 0 (List.length (L.eligible_sites body ~param:"x")));
    Alcotest.test_case "immediate-application-is-let" `Quick (fun () ->
        (* an immediately applied lambda runs exactly once: orderable *)
        let body = def_body "f x = (lambda(y). cons (car x) nil) 0" "f" in
        checki "one" 1 (List.length (L.eligible_sites body ~param:"x")));
    Alcotest.test_case "let-does-not-defeat" `Quick (fun () ->
        let body = def_body "f x = let t = car x in cons t nil" "f" in
        checki "one" 1 (List.length (L.eligible_sites body ~param:"x")));
    Alcotest.test_case "shadowing-blocks" `Quick (fun () ->
        (* the cons mentions the let-bound x, not the parameter, so a
           DCONS on the parameter name would grab the wrong value *)
        let body = def_body "f x = let x = cdr x in cons (car x) nil" "f" in
        checki "none" 0 (List.length (L.eligible_sites body ~param:"x")));
    Alcotest.test_case "selection-prevents-same-path-pairs" `Quick (fun () ->
        (* both conses of [a, b] are eligible but on one path *)
        let body = def_body "f x = if null x then nil else cons 1 (cons 2 nil)" "f" in
        let sites = L.eligible_sites body ~param:"x" in
        checki "both eligible" 2 (List.length sites);
        checki "one selected" 1 (List.length (L.select sites)));
    Alcotest.test_case "cons-sites-count" `Quick (fun () ->
        checki "three" 3 (List.length (L.cons_sites (P.parse "[1, 2, 3]"))));
  ]

(* ---- reuse ------------------------------------------------------------------ *)

let reuse_tests =
  [
    Alcotest.test_case "candidates-catalogue" `Quick (fun () ->
        let src =
          Ex.wrap
            [ Ex.append_def; Ex.split_def; Ex.ps_def; Ex.rev_def; Ex.length_def; Ex.map_def ]
            "0"
        in
        let cands = R.candidates (solver src) (Surface.of_string src) in
        let names = List.map (fun c -> c.R.def) cands in
        checkb "append" true (List.mem "append" names);
        checkb "split" true (List.mem "split" names);
        checkb "ps" true (List.mem "ps" names);
        checkb "rev" true (List.mem "rev" names);
        checkb "map" true (List.mem "map" names);
        checkb "length has no cons" true (not (List.mem "length" names)));
    Alcotest.test_case "append-prime-shape" `Quick (fun () ->
        (* the paper's APPEND': DCONS x (car x) (append' (cdr x) y) *)
        let src = Ex.wrap [ Ex.append_def ] "0" in
        let t = solver src in
        let surface = Surface.of_string src in
        let c = List.hd (R.candidates t surface) in
        checki "arg" 1 c.R.arg;
        let rhs = R.primed_rhs t surface c in
        let rec has_dcons = function
          | Ir.Dcons -> true
          | Ir.App (f, a) -> has_dcons f || has_dcons a
          | Ir.Lam (_, b) -> has_dcons b
          | Ir.If (c, t, f) -> has_dcons c || has_dcons t || has_dcons f
          | Ir.Letrec (bs, b) ->
              List.exists (fun (_, r) -> has_dcons r) bs || has_dcons b
          | _ -> false
        in
        checkb "contains dcons" true (has_dcons rhs);
        let rec calls_primed = function
          | Ir.Var "append'" -> true
          | Ir.App (f, a) -> calls_primed f || calls_primed a
          | Ir.Lam (_, b) -> calls_primed b
          | Ir.If (c, t, f) -> calls_primed c || calls_primed t || calls_primed f
          | Ir.Letrec (bs, b) ->
              List.exists (fun (_, r) -> calls_primed r) bs || calls_primed b
          | _ -> false
        in
        checkb "self-call primed" true (calls_primed rhs));
    Alcotest.test_case "main-literal-redirected" `Quick (fun () ->
        let src = Ex.wrap [ Ex.append_def; Ex.rev_def ] "rev [1, 2, 3]" in
        let _, report = R.program (solver src) (Surface.of_string src) in
        checkb "redirected" true (report.R.substituted_calls >= 1));
    Alcotest.test_case "var-arg-not-redirected" `Quick (fun () ->
        (* xs is shared between two calls: neither may destroy it *)
        let src =
          Ex.wrap
            [ Ex.append_def; Ex.rev_def ]
            "let xs = [1, 2] in append (rev xs) xs"
        in
        let ir, _ = R.program (solver src) (Surface.of_string src) in
        let m = M.create ~check_arenas:true () in
        let got = M.read_value m (M.eval m ir) in
        Alcotest.check value "still correct" (Eval.run (Surface.of_string src)) got);
  ]

(* ---- end-to-end: every optimization preserves semantics ------------------- *)

let programs =
  [
    ("ps", Ex.partition_sort_program);
    ("map-pair", Ex.map_pair_program);
    ("rev", Ex.rev_program);
    ("ps-create", Ex.wrap
       [ Ex.append_def; Ex.split_def; Ex.ps_def; Ex.create_list_def ]
       "ps (create_list 12)");
    ("isort", Ex.wrap [ Ex.insert_def; Ex.isort_def ] "isort [4, 2, 9, 1]");
    ("concat", Ex.wrap [ Ex.append_def; Ex.concat_def ] "concat [[1, 2], [3], []]");
    ("take-drop", Ex.wrap [ Ex.take_def; Ex.drop_def ] "take 2 (drop 1 [1, 2, 3, 4, 5])");
    ("map-inc", Ex.wrap [ Ex.map_def ] "map (fun n -> n + 1) [1, 2, 3]");
  ]

let option_sets =
  [
    ("reuse", { T.none with T.reuse = true });
    ("stack", { T.none with T.stack = true });
    ("block", { T.none with T.block = true });
    ("all", T.all);
  ]

let preservation_tests =
  List.concat_map
    (fun (pname, src) ->
      List.map
        (fun (oname, options) ->
          Alcotest.test_case (pname ^ "-" ^ oname) `Quick (fun () ->
              let surface = Surface.of_string src in
              let expected = Eval.run surface in
              let r = T.optimize ~options (Nml.Infer.infer_program surface) in
              let m = M.create ~heap_size:32 ~check_arenas:true () in
              let got = M.read_value m (M.eval m r.T.ir) in
              Alcotest.check value "same result" expected got))
        option_sets)
    programs

(* ---- the optimizations actually fire --------------------------------------- *)

let run_with options src =
  let surface = Surface.of_string src in
  let r = T.optimize ~options (Nml.Infer.infer_program surface) in
  let m = M.create ~heap_size:32 ~check_arenas:true () in
  ignore (M.eval m r.T.ir);
  (r, M.stats m)

let effect_tests =
  [
    Alcotest.test_case "rev-reuse-fires" `Quick (fun () ->
        let _, s = run_with { T.none with T.reuse = true } Ex.rev_program in
        checkb "reuses" true (s.Stats.dcons_reuses > 0));
    Alcotest.test_case "rev-reuse-cuts-allocations" `Quick (fun () ->
        let baseline =
          let m = M.create ~heap_size:32 () in
          ignore (M.run m (Surface.of_string Ex.rev_program));
          (M.stats m).Stats.heap_allocs
        in
        let _, s = run_with { T.none with T.reuse = true } Ex.rev_program in
        checkb "fewer heap allocs" true (s.Stats.heap_allocs < baseline));
    Alcotest.test_case "map-pair-stack-fires" `Quick (fun () ->
        let r, s = run_with { T.none with T.stack = true } Ex.map_pair_program in
        (match r.T.stack_report with
        | Some rep -> checkb "annotated" true (rep.Optimize.Stackalloc.annotations <> [])
        | None -> Alcotest.fail "no stack report");
        checkb "arena cells" true (s.Stats.arena_allocs > 0);
        checki "all freed" s.Stats.arena_allocs s.Stats.arena_freed);
    Alcotest.test_case "ps-create-block-fires" `Quick (fun () ->
        let src =
          Ex.wrap
            [ Ex.append_def; Ex.split_def; Ex.ps_def; Ex.create_list_def ]
            "ps (create_list 12)"
        in
        let r, s = run_with { T.none with T.block = true } src in
        (match r.T.block_report with
        | Some rep -> checkb "annotated" true (rep.Optimize.Blockalloc.annotations <> [])
        | None -> Alcotest.fail "no block report");
        checki "block cells" 12 s.Stats.arena_allocs;
        checki "freed wholesale" 12 s.Stats.arena_freed);
    Alcotest.test_case "ps-all-no-gc" `Quick (fun () ->
        (* with reuse on, partition sort on a literal runs without any
           collection in a heap that the baseline overflows *)
        let _, s = run_with T.all Ex.partition_sort_program in
        checkb "reuse happened" true (s.Stats.dcons_reuses > 0));
  ]

(* ---- tree reuse (DNODE) -------------------------------------------------------- *)

let tree_reuse_tests =
  [
    Alcotest.test_case "mirror-gets-dnode" `Quick (fun () ->
        let src = Ex.wrap [ Ex.mirror_def ] "0" in
        let cands = R.candidates (solver src) (Surface.of_string src) in
        match cands with
        | [ c ] ->
            checkb "tree param" true (String.equal c.R.param "t");
            checki "node sites" 1 (List.length c.R.node_sites);
            checki "no cons sites" 0 (List.length c.R.sites)
        | _ -> Alcotest.fail "expected exactly one candidate");
    Alcotest.test_case "tinsert-not-a-candidate" `Quick (fun () ->
        (* its argument's nodes escape: nothing to reuse *)
        let src = Ex.wrap [ Ex.tinsert_def ] "0" in
        let cands = R.candidates (solver src) (Surface.of_string src) in
        checkb "none" true
          (List.for_all (fun c -> not (String.equal c.R.def "tinsert")) cands));
    Alcotest.test_case "mirror-dnode-executes" `Quick (fun () ->
        let src =
          Ex.wrap [ Ex.mirror_def; Ex.tinsert_def ]
            "mirror (tinsert 3 (tinsert 1 (tinsert 5 leaf)))"
        in
        let surface = Surface.of_string src in
        let expected = Eval.run surface in
        let ir, _ = R.program (solver src) surface in
        let m = M.create ~heap_size:64 ~check_arenas:true () in
        let got = M.read_value m (M.eval m ir) in
        Alcotest.check value "same" expected got;
        checkb "nodes recycled" true ((M.stats m).Stats.dcons_reuses > 0));
    Alcotest.test_case "shared-input-not-redirected" `Quick (fun () ->
        (* the variable is used twice: mirror must not destroy it *)
        let src =
          Ex.wrap
            [ Ex.mirror_def; Ex.tsum_def; Ex.tinsert_def ]
            "let t = tinsert 1 (tinsert 2 leaf) in tsum (mirror t) + tsum t"
        in
        let surface = Surface.of_string src in
        let expected = Eval.run surface in
        let ir, _ = R.program (solver src) surface in
        let m = M.create ~heap_size:64 ~check_arenas:true () in
        let got = M.read_value m (M.eval m ir) in
        Alcotest.check value "still correct" expected got);
    Alcotest.test_case "tmap-gets-dnode" `Quick (fun () ->
        let src = Ex.wrap [ Ex.tmap_def ] "0" in
        let cands = R.candidates (solver src) (Surface.of_string src) in
        checkb "tmap primed" true
          (List.exists
             (fun c -> String.equal c.R.def "tmap" && c.R.node_sites <> [])
             cands));
  ]

(* ---- monomorphize + optimize -------------------------------------------------- *)

let examples_dir =
  let local = Filename.concat (Filename.concat ".." "examples") "programs" in
  if Sys.file_exists local then local else Filename.concat "examples" "programs"

let example_programs () =
  Sys.readdir examples_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".nml")
  |> List.sort String.compare
  |> List.map (fun f ->
         (f, In_channel.with_open_text (Filename.concat examples_dir f) In_channel.input_all))

let mono_opt_tests =
  [
    Alcotest.test_case "two-instances-both-primed" `Quick (fun () ->
        (* rev used at int list and int list list: with monomorphization
           both copies get destructive versions and the program still
           computes the same value *)
        let src =
          Ex.wrap
            [ Ex.append_def; Ex.rev_def ]
            "append (rev [1, 2]) (car (rev [[3], [4]]))"
        in
        let surface = Surface.of_string src in
        let expected = Eval.run surface in
        let r = T.optimize ~options:T.all (Nml.Infer.infer_program surface) in
        let m = M.create ~heap_size:32 ~check_arenas:true () in
        let got = M.read_value m (M.eval m r.T.ir) in
        Alcotest.check value "same result" expected got;
        (match r.T.reuse_report with
        | Some rr ->
            let rev_cands =
              List.filter
                (fun c -> String.length c.R.def >= 3 && String.sub c.R.def 0 3 = "rev")
                rr.R.candidates
            in
            checki "both rev copies primed" 2 (List.length rev_cands)
        | None -> Alcotest.fail "no reuse report");
        checkb "reuse executed" true ((M.stats m).Stats.dcons_reuses > 0));
    Alcotest.test_case "mono-off-keeps-program" `Quick (fun () ->
        let src = Ex.rev_program in
        let surface = Surface.of_string src in
        let r = T.optimize ~options:{ T.all with T.monomorphize = false } (Nml.Infer.infer_program surface) in
        let m = M.create ~heap_size:32 ~check_arenas:true () in
        let got = M.read_value m (M.eval m r.T.ir) in
        Alcotest.check value "same result" (Eval.run surface) got);
    Alcotest.test_case "optimize-equals-reinferred-mono-program" `Quick (fun () ->
        (* the benchmark's compile path infers the monomorphized surface
           again and hands the optimizer that solver; [T.optimize] must
           produce the same program and the same report from the front
           end's typed program alone *)
        let rendered f =
          match f () with
          | r -> Format.asprintf "%a@.%a" T.pp_report r Ir.pp r.T.ir
          | exception e -> "raised " ^ Printexc.to_string e
        in
        let rand = Random.State.make [| 41 |] in
        let generated =
          List.init 200 (fun i ->
              (Printf.sprintf "gen-%d" i, QCheck.Gen.generate1 ~rand Gen.gen_any_program))
        in
        checki "examples present" 9 (List.length (example_programs ()));
        List.iter
          (fun (name, src) ->
            let surface = Surface.of_string src in
            let direct = rendered (fun () -> T.optimize (Nml.Infer.infer_program surface)) in
            let reinferred =
              rendered (fun () ->
                  let mono = Nml.Mono.run surface in
                  let prog = mono.Nml.Mono.program in
                  T.optimize_with
                    (Escape.Fixpoint.make (Nml.Infer.infer_program prog))
                    T.all prog)
            in
            Alcotest.(check string) name reinferred direct)
          (Check.Harness.builtin_corpus @ example_programs () @ generated));
    Alcotest.test_case "mono-copies-are-their-own-simplest-instances" `Quick (fun () ->
        (* the typed program Mono hands the optimizer: its table of
           simplest instances holds the tree Mono typed for every copy
           before anything asks, a lookup returns that very tree, the
           solver adds none, and it reads the copy's own instance *)
        List.iter
          (fun (name, src) ->
            let mono = Nml.Mono.run (Surface.of_string src) in
            let p = mono.Nml.Mono.typed in
            let copies = List.map (fun (_, n, _) -> n) mono.Nml.Mono.instances in
            let table = p.Nml.Infer.simplest in
            checki (name ^ ": one tree per copy") (List.length copies) (Hashtbl.length table);
            let trees =
              List.map
                (fun n ->
                  match Hashtbl.find_opt table n with
                  | Some tree -> tree
                  | None -> Alcotest.failf "%s: %s is not typed yet" name n)
                copies
            in
            let t = Escape.Fixpoint.make p in
            ignore (Escape.Fixpoint.main_value t);
            checki (name ^ ": the solver types no copy") (List.length copies)
              (Hashtbl.length table);
            List.iter2
              (fun (_, copy, inst) tree ->
                let what = Printf.sprintf "%s: %s" name copy in
                checkb (what ^ " is Mono's tree") true (tree == Nml.Infer.simplest p copy);
                checkb (what ^ " is still Mono's tree") true (tree == Hashtbl.find table copy);
                checkb (what ^ " erases to the copy") true
                  (Nml.Tast.erase tree = Surface.def mono.Nml.Mono.program copy);
                Alcotest.(check string) (what ^ " instance") (Nml.Ty.to_string inst)
                  (Nml.Ty.to_string (Escape.Fixpoint.instance_ty t copy)))
              mono.Nml.Mono.instances trees)
          (( "two-instances",
             Ex.wrap [ Ex.append_def; Ex.rev_def ] "append (rev [1, 2]) (car (rev [[3], [4]]))" )
          :: Check.Harness.builtin_corpus
          @ example_programs ()));
  ]

(* ---- random differential: optimized == reference --------------------------- *)

let differential =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"optimized program agrees with reference" ~count:200
        (QCheck.make ~print:(fun s -> s) Gen.gen_program)
        (fun src ->
          let surface = Surface.of_string src in
          let expected = Eval.run surface in
          let r = T.optimize ~options:T.all (Nml.Infer.infer_program surface) in
          let m = M.create ~heap_size:8 ~check_arenas:true () in
          let got = M.read_value m (M.eval m r.T.ir) in
          Eval.equal_value expected got);
      QCheck.Test.make ~name:"optimized tree program agrees with reference" ~count:150
        (QCheck.make
           ~print:(fun (def, input) ->
             Printf.sprintf "%s on %s" def (Gen.tree_input_src input))
           QCheck.Gen.(pair Gen.gen_tree_def Gen.gen_input))
        (fun (def, input) ->
          let src =
            Ex.wrap [ def ] (Printf.sprintf "f %s" (Gen.tree_input_src input))
          in
          let surface = Surface.of_string src in
          let expected = Eval.run surface in
          let r = T.optimize ~options:T.all (Nml.Infer.infer_program surface) in
          let m = M.create ~heap_size:8 ~check_arenas:true () in
          let got = M.read_value m (M.eval m r.T.ir) in
          Eval.equal_value expected got);
      QCheck.Test.make ~name:"optimized pair program agrees with reference" ~count:150
        (QCheck.make
           ~print:(fun (def, input) ->
             Printf.sprintf "%s on %s" def (Gen.pair_input_src input))
           QCheck.Gen.(pair Gen.gen_pair_def Gen.gen_pair_input))
        (fun (def, input) ->
          let src =
            Ex.wrap [ def ] (Printf.sprintf "f %s" (Gen.pair_input_src input))
          in
          let surface = Surface.of_string src in
          let expected = Eval.run surface in
          let r = T.optimize ~options:T.all (Nml.Infer.infer_program surface) in
          let m = M.create ~heap_size:8 ~check_arenas:true () in
          let got = M.read_value m (M.eval m r.T.ir) in
          Eval.equal_value expected got);
    ]

let () =
  Alcotest.run "optimize"
    [
      ("shape", shape_tests);
      ("liveness", liveness_tests);
      ("reuse", reuse_tests);
      ("preservation", preservation_tests);
      ("effects", effect_tests);
      ("tree-reuse", tree_reuse_tests);
      ("mono-optimize", mono_opt_tests);
      ("differential", differential);
    ]

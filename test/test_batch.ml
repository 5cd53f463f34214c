(* Tests for the persistent summary cache and the parallel batch driver:
   key stability under re-formatting, transitive invalidation along the
   callgraph, robustness against corrupted stores, schema-version
   invalidation, warm-run identity (zero evaluations, bit-identical
   reports) and differential agreement between the domain pool and the
   sequential per-file baseline on a random corpus. *)

module Skey = Cache.Skey
module Store = Cache.Store
module Summary = Cache.Summary
module Batch = Cache.Batch

(* the escape job, as [nmlc batch] runs it *)
let escape = Analyses.Registry.job (Option.get (Analyses.Registry.find "escape"))
module Report = Escape.Report
module Examples = Nml.Examples

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let infer src = Nml.Infer.infer_program (Nml.Surface.of_string src)

let render summaries = Format.asprintf "%a@." Report.pp_program_summaries summaries

let tmp_counter = ref 0

let fresh_dir prefix =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "nmlc-%s-%d-%d" prefix (Unix.getpid ()) !tmp_counter)
  in
  Sys.mkdir d 0o755;
  d

let write_file path contents = Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir prefix f =
  let d = fresh_dir prefix in
  Fun.protect ~finally:(fun () -> try rm_rf d with Sys_error _ -> ()) (fun () -> f d)

(* a three-definition program with a clean dependency shape:
   reader -> callee, loner independent *)
let src_of ~callee_body =
  Examples.wrap
    [
      Printf.sprintf "callee l = %s" callee_body;
      "reader l = callee (cons (car l) l)";
      "loner l = cons 1 l";
    ]
    "reader [1, 2]"

let base_src = src_of ~callee_body:"cons (car l) nil"

let key_units =
  [
    Alcotest.test_case "key-ignores-whitespace-and-comments" `Quick (fun () ->
        let reformatted =
          "-- a comment\nletrec\n  callee l   =   cons (car l) nil;\n\n\
           reader l = callee (cons (car l) l);\n\
           loner l = cons 1 l\n\
           in  reader [1,    2]"
        in
        let k1 = Skey.of_program (infer base_src) in
        let k2 = Skey.of_program (infer reformatted) in
        List.iter
          (fun d ->
            checks d
              (Option.get (Skey.key_of_def k1 d))
              (Option.get (Skey.key_of_def k2 d)))
          [ "callee"; "reader"; "loner" ]);
    Alcotest.test_case "invalidation-is-transitive" `Quick (fun () ->
        let k1 = Skey.of_program (infer base_src) in
        let k2 = Skey.of_program (infer (src_of ~callee_body:"cons 7 nil")) in
        let key keys d = Option.get (Skey.key_of_def keys d) in
        checkb "edited callee re-keys" true (key k1 "callee" <> key k2 "callee");
        checkb "reader re-keys through its callee" true
          (key k1 "reader" <> key k2 "reader");
        checks "unrelated definition keeps its key" (key k1 "loner") (key k2 "loner"));
  ]

(* One single edit of [callee]'s body per case, each keeping the
   definition's type: the body key alone must re-key it and its reader. *)
let body_edits =
  [
    ("constant", "cons (car l + 1) nil", "cons (car l + 2) nil");
    ("variable", "(fun m -> cons (car l) m) (cdr l)", "(fun m -> cons (car l) l) (cdr l)");
    ("primitive", "cons (car l + 1) nil", "cons (car l - 1) nil");
    ("operand-order", "cons (car l - 1) nil", "cons (1 - car l) nil");
    ( "lambda-parameter",
      "(fun m -> cons (car l) l) (cdr l)",
      "(fun l -> cons (car l) l) (cdr l)" );
    ("if-branches", "if null l then nil else cdr l", "if null l then cdr l else nil");
    ( "letrec-order",
      "letrec f y = cons 1 y; g y = cdr y in f (g l)",
      "letrec g y = cdr y; f y = cons 1 y in f (g l)" );
    ( "application-nesting",
      "letrec f y = y; g y = y in f (g l)",
      "letrec f y = y; g y = y in (f g) l" );
  ]

let edit_units =
  List.map
    (fun (name, before, after) ->
      Alcotest.test_case ("edit-" ^ name ^ "-re-keys") `Quick (fun () ->
          let p1 = infer (src_of ~callee_body:before) in
          let p2 = infer (src_of ~callee_body:after) in
          let ty p =
            Nml.Ty.key (Nml.Infer.instantiate_def p "callee" None).Nml.Tast.ty
          in
          checks "same callee type" (ty p1) (ty p2);
          let k1 = Skey.of_program p1 and k2 = Skey.of_program p2 in
          let key keys d = Option.get (Skey.key_of_def keys d) in
          checkb "edited callee re-keys" true (key k1 "callee" <> key k2 "callee");
          checkb "reader re-keys" true (key k1 "reader" <> key k2 "reader");
          checks "loner keeps its key" (key k1 "loner") (key k2 "loner")))
    body_edits

(* Every subexpression of a program, so that pairs of them include
   equal and unequal ones. *)
let rec subterms (e : Nml.Ast.expr) =
  e
  ::
  (match e with
  | Const _ | Prim _ | Var _ -> []
  | App (_, f, a) -> subterms f @ subterms a
  | Lam (_, _, b) -> subterms b
  | If (_, c, t, f) -> subterms c @ subterms t @ subterms f
  | Letrec (_, bs, b) -> List.concat_map (fun (_, r) -> subterms r) bs @ subterms b)

let key_properties =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"ast-keys-equal-iff-equal" ~count:100
        (QCheck.make
           ~print:(fun (a, b) -> a ^ "\n" ^ b)
           (QCheck.Gen.pair Gen.gen_any_program Gen.gen_any_program))
        (fun (s1, s2) ->
          let e1 = Nml.Parser.parse s1 and e2 = Nml.Parser.parse s2 in
          (* a reprint parses to an equal tree at other locations *)
          let e1' = Nml.Parser.parse ("\n  " ^ Nml.Pretty.to_string e1) in
          let terms = subterms e1 @ subterms e2 @ subterms e1' in
          List.for_all
            (fun a ->
              List.for_all
                (fun b ->
                  Bool.equal
                    (String.equal (Nml.Ast.key a) (Nml.Ast.key b))
                    (Nml.Ast.equal a b))
                terms)
            terms);
    ]

let cache_units =
  [
    Alcotest.test_case "warm-run-is-free-and-identical" `Quick (fun () ->
        with_dir "warm" @@ fun dir ->
        let store = Store.create (Filename.concat dir "cache") in
        let prog = infer Examples.partition_sort_program in
        let cold = Summary.analyze ~store prog in
        checkb "cold run evaluates" true (cold.Cache.Engine.evaluations > 0);
        checki "cold run misses" 0 cold.Cache.Engine.scc_hits;
        let warm = Summary.analyze ~store (infer Examples.partition_sort_program) in
        checki "warm run is free" 0 warm.Cache.Engine.evaluations;
        checki "warm run all hits" 0 warm.Cache.Engine.scc_misses;
        checks "bit-identical report" (render cold.Cache.Engine.summaries)
          (render warm.Cache.Engine.summaries));
    Alcotest.test_case "one-edit-respects-the-cone" `Quick (fun () ->
        with_dir "edit" @@ fun dir ->
        let store = Store.create (Filename.concat dir "cache") in
        ignore (Summary.analyze ~store (infer base_src));
        let edited = Summary.analyze ~store (infer (src_of ~callee_body:"cons 7 nil")) in
        (* callee and reader re-solve; loner is served from the store *)
        checki "re-solved sccs" 2 edited.Cache.Engine.scc_misses;
        checki "warm sccs" 1 edited.Cache.Engine.scc_hits;
        let fresh = Summary.analyze (infer (src_of ~callee_body:"cons 7 nil")) in
        checks "same report as a fresh solve" (render fresh.Cache.Engine.summaries)
          (render edited.Cache.Engine.summaries);
        checkb "cheaper than the fresh solve" true
          (edited.Cache.Engine.evaluations < fresh.Cache.Engine.evaluations));
    Alcotest.test_case "corrupted-entries-are-misses" `Quick (fun () ->
        with_dir "corrupt" @@ fun dir ->
        let root = Filename.concat dir "cache" in
        let store = Store.create root in
        let prog = infer base_src in
        let cold = Summary.analyze ~store prog in
        (* truncate or garble every stored entry *)
        Array.iter
          (fun shard ->
            let sdir = Filename.concat root shard in
            if Sys.is_directory sdir then
              Array.iteri
                (fun i f ->
                  let p = Filename.concat sdir f in
                  if i mod 2 = 0 then write_file p "{\"schema\": \"nmlc/summary-cache-v1\", \"key\": \"tru"
                  else write_file p "not json at all")
                (Sys.readdir sdir))
          (Sys.readdir root);
        let again = Summary.analyze ~store (infer base_src) in
        checki "everything misses" 0 again.Cache.Engine.scc_hits;
        checkb "re-solved" true (again.Cache.Engine.evaluations > 0);
        checks "same report" (render cold.Cache.Engine.summaries)
          (render again.Cache.Engine.summaries);
        (* and the rewritten entries serve the next run *)
        let warm = Summary.analyze ~store (infer base_src) in
        checki "store healed" 0 warm.Cache.Engine.scc_misses);
    Alcotest.test_case "schema-bump-invalidates" `Quick (fun () ->
        with_dir "schema" @@ fun dir ->
        let store = Store.create (Filename.concat dir "cache") in
        let prog = infer Examples.map_pair_program in
        let cold = Summary.analyze ~store prog in
        (* rewrite every entry as a (well-formed) record of a future
           schema version: decoding must refuse it and re-solve *)
        let keys = Skey.of_program prog in
        List.iter
          (fun (key, _members) ->
            match Store.load store ~key with
            | None -> Alcotest.fail "expected a stored record"
            | Some (Nml.Json.Obj fields) ->
                Store.save store ~key
                  (Nml.Json.Obj
                     (List.map
                        (function
                          | "schema", _ -> ("schema", Nml.Json.Str "nmlc/summary-cache-v999")
                          | f -> f)
                        fields))
            | Some _ -> Alcotest.fail "expected an object")
          (Skey.sccs keys);
        let bumped = Summary.analyze ~store (infer Examples.map_pair_program) in
        checki "no hits across versions" 0 bumped.Cache.Engine.scc_hits;
        checks "same report" (render cold.Cache.Engine.summaries)
          (render bumped.Cache.Engine.summaries));
    Alcotest.test_case "codec-roundtrip" `Quick (fun () ->
        let t = Escape.Fixpoint.make (infer Examples.partition_sort_program) in
        List.iter
          (fun s ->
            let s' = Summary.def_of_json (Summary.def_to_json s) in
            checks s.Report.s_name
              (Format.asprintf "%a" Report.pp_def_summary s)
              (Format.asprintf "%a" Report.pp_def_summary s'))
          (Report.summarize_program t));
  ]

(* ---- the callgraph against its typed definition ---------------------------- *)

let examples_dir =
  let local = Filename.concat (Filename.concat ".." "examples") "programs" in
  if Sys.file_exists local then local else Filename.concat "examples" "programs"

(* The builtin corpus, every example file and 200 generated programs. *)
let callgraph_corpus () =
  let examples =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".nml")
    |> List.sort String.compare
    |> List.map (fun f ->
           (f, In_channel.with_open_text (Filename.concat examples_dir f) In_channel.input_all))
  in
  let rand = Random.State.make [| 36 |] in
  let generated =
    List.init 200 (fun i ->
        (Printf.sprintf "gen-%d" i, QCheck.Gen.generate1 ~rand Gen.gen_any_program))
  in
  Check.Harness.builtin_corpus @ examples @ generated

let callgraph_units =
  [
    Alcotest.test_case "edges-match-the-typed-instances" `Quick (fun () ->
        let corpus = callgraph_corpus () in
        checki "examples present" 9
          (List.length
             (List.filter (fun (n, _) -> Filename.check_suffix n ".nml") corpus));
        List.iter
          (fun (name, src) ->
            let p = infer src in
            let cg = Nml.Callgraph.of_program p in
            let names = Array.of_list (List.map fst p.Nml.Infer.schemes) in
            let index x =
              let rec go i =
                if i >= Array.length names then None
                else if String.equal names.(i) x then Some i
                else go (i + 1)
              in
              go 0
            in
            (* the reference definition: free variables of the simplest
               typed instance that name a definition *)
            let edges =
              Array.map
                (fun f ->
                  List.filter_map index
                    (Nml.Tast.free_vars (Nml.Infer.instantiate_def p f None)))
                names
            in
            Array.iteri
              (fun i f ->
                Alcotest.(check (list string))
                  (name ^ " refs " ^ f)
                  (List.map (fun j -> names.(j)) edges.(i))
                  (Nml.Callgraph.refs cg f))
              names;
            Alcotest.(check (list (list string)))
              (name ^ " sccs")
              (List.map
                 (List.map (fun i -> names.(i)))
                 (Nml.Callgraph.Scc.compute ~n:(Array.length names) ~succs:(fun i ->
                      edges.(i))))
              (Nml.Callgraph.sccs cg))
          corpus);
  ]

(* ---- the work of one request, in minor words ------------------------------ *)

(* The shape of a serve-edit request: eight list functions, a selector
   whose constant the edits bump, and two readers (11 definitions). *)
let serve_edit_src =
  Examples.wrap
    (Examples.
       [ append_def; rev_def; map_def; insert_def; take_def; filter_def; sum_def; length_def ]
    @ [
        "sel x = if car x < 1000 then insert (car x) x else take 2 x";
        "use l = map sel l";
        "top l = use l";
      ])
    "top [[3, 14, 15], [92, 65], [35, 89, 79, 32], [38]]"

(* Minor words repeat exactly from run to run, unlike time. *)
let minor_words f =
  let before = Gc.minor_words () in
  let r = f () in
  (r, int_of_float (Gc.minor_words () -. before))

let work_units =
  [
    Alcotest.test_case "keying-a-request-stays-cheap" `Quick (fun () ->
        let prog = infer serve_edit_src in
        let keys, words = minor_words (fun () -> Skey.of_program prog) in
        checki "one key per definition" 11 (List.length (Skey.sccs keys));
        checkb (Printf.sprintf "Skey.of_program: %d minor words <= 25000" words) true
          (words <= 25_000));
    Alcotest.test_case "warm-request-stays-cheap" `Quick (fun () ->
        with_dir "words" @@ fun dir ->
        let store =
          Store.create ~memory:true ~write_back:true (Filename.concat dir "cache")
        in
        let cold = Batch.analyze_source ~store ~path:"<request>" serve_edit_src in
        let warm, words =
          minor_words (fun () -> Batch.analyze_source ~store ~path:"<request>" serve_edit_src)
        in
        checki "warm is free" 0 warm.Batch.evaluations;
        checks "same output" cold.Batch.output warm.Batch.output;
        checkb (Printf.sprintf "warm analyze_source: %d minor words <= 75000" words) true
          (words <= 75_000));
  ]

(* ---- differential: domain pool vs sequential baseline --------------------- *)

let write_corpus dir sources =
  List.mapi
    (fun i src ->
      let path = Filename.concat dir (Printf.sprintf "p%02d.nml" i) in
      write_file path src;
      path)
    sources

let result_triple (r : Batch.result) = (r.Batch.output, r.Batch.errors, r.Batch.code)

let differential_units =
  [
    Alcotest.test_case "pool-matches-sequential-on-random-corpus" `Slow (fun () ->
        let rand = Random.State.make [| 20260807 |] in
        let sources =
          List.init 40 (fun _ -> QCheck.Gen.generate1 ~rand Gen.gen_any_program)
        in
        with_dir "corpus" @@ fun dir ->
        let files = write_corpus dir sources in
        let sequential = List.map (fun f -> escape ~store:None f) files in
        let pooled = Batch.run ~analyze:escape ~jobs:8 files in
        List.iter2
          (fun s p ->
            let so, se, sc = result_triple s and po, pe, pc = result_triple p in
            checks (s.Batch.path ^ " stdout") so po;
            checks (s.Batch.path ^ " stderr") se pe;
            checki (s.Batch.path ^ " code") sc pc)
          sequential pooled;
        (* and through a shared store, the reports still match *)
        let store = Store.create (Filename.concat dir "cache") in
        let cached = Batch.run ~analyze:escape ~store ~jobs:8 files in
        List.iter2
          (fun s p ->
            checks (s.Batch.path ^ " cached stdout") s.Batch.output p.Batch.output)
          sequential cached;
        let warm = Batch.run ~analyze:escape ~store ~jobs:8 files in
        checki "warm corpus is free" 0
          (List.fold_left (fun acc r -> acc + r.Batch.evaluations) 0 warm));
    Alcotest.test_case "error-files-are-isolated" `Quick (fun () ->
        with_dir "errs" @@ fun dir ->
        let good = Filename.concat dir "good.nml" in
        let bad = Filename.concat dir "bad.nml" in
        let missing = Filename.concat dir "missing.nml" in
        write_file good base_src;
        write_file bad "letrec f l = cons x nil in f [1]";
        let rs = Batch.run ~analyze:escape ~jobs:2 [ good; bad; missing ] in
        checki "three results" 3 (List.length rs);
        (match rs with
        | [ g; b; m ] ->
            checki "good is clean" 0 g.Batch.code;
            checki "bad is a finding" 1 b.Batch.code;
            checkb "bad has a diagnostic" true (b.Batch.errors <> "");
            checki "missing is a user error" 1 m.Batch.code
        | _ -> Alcotest.fail "unexpected result shape");
        checki "merged exit code" 1 (Batch.exit_code rs));
  ]

let () =
  Alcotest.run "batch"
    [
      ("keys", key_units @ edit_units @ key_properties);
      ("cache", cache_units);
      ("work", work_units); ("differential", differential_units);
      ("callgraph", callgraph_units);
    ]

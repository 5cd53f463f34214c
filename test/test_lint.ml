(* Tests for the lint engine: a firing and a non-firing witness per
   rule, the dead-parameter analysis, suppression comments, the
   registry's configuration semantics, per-SCC cache identity and
   invalidation, SARIF validated against a vendored minimal schema, and
   the no-dummy-location regression over the builtin corpus. *)

module D = Nml.Diagnostic
module J = Nml.Json

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let lint ?config ?store ?fault src =
  Lint.Engine.run ?config ?store ?fault ~file:"<test>" src

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let replace_once s ~old_part ~new_part =
  let n = String.length s and m = String.length old_part in
  let rec go i =
    if i + m > n then failwith "replace_once: not found"
    else if String.sub s i m = old_part then
      String.sub s 0 i ^ new_part ^ String.sub s (i + m) (n - i - m)
    else go (i + 1)
  in
  go 0

let codes_of o = List.map (fun d -> d.D.code) o.Lint.Engine.findings

let fires code o = List.mem code (codes_of o)

let check_fires src code =
  checkb (Printf.sprintf "%s fires on %s" code src) true (fires code (lint src))

let check_clean src code =
  checkb (Printf.sprintf "%s does not fire on %s" code src) false
    (fires code (lint src))

(* ---- witnesses: one firing and one non-firing program per rule ------------- *)

let unguarded_reuse = "letrec f l = cons (car l) nil in f [1, 2]"
let guarded_reuse =
  "letrec append x y = if null x then y else cons (car x) (append (cdr x) y) \
   in append [1] [2]"
let no_cons = "letrec length l = if null l then 0 else 1 + length (cdr l) in length [1]"
let forwarded = "letrec f n l = if n < 1 then 0 else f (n - 1) l in f 3 [1, 2]"
let forwarded_exempt =
  "letrec f n _l = if n < 1 then 0 else f (n - 1) _l in f 3 [1, 2]"
let unused_param = "letrec f x y = cons (car x) nil in f [1] [2]"
let unused_exempt = "letrec f x _y = cons (car x) nil in f [1] [2]"
let poly_len =
  "letrec len l = if null l then 0 else 1 + len (cdr l) in len [1] + len [[1]]"
let const_cond = "letrec f x = if true then x else cons 1 x in f [1]"

let rule_units =
  [
    Alcotest.test_case "LINT001-missed-reuse" `Quick (fun () ->
        (* eligible cons site, but not nil-guarded: Reuse produces no
           primed version while escape + sharing license one *)
        check_fires unguarded_reuse "LINT001";
        (* the guarded version gets a real Reuse candidate *)
        check_clean guarded_reuse "LINT001";
        (* no constructor site at all: nothing to rewrite *)
        check_clean no_cons "LINT001");
    Alcotest.test_case "LINT002-heap-doomed" `Quick (fun () ->
        (* append's result shares y's spine at every call site *)
        check_fires guarded_reuse "LINT002";
        (* f builds its result fresh: top spine provably unshared *)
        check_clean unguarded_reuse "LINT002");
    Alcotest.test_case "LINT003-fires-only-under-injection" `Quick (fun () ->
        check_clean poly_len "LINT003";
        let o = lint ~fault:Lint.Rule.Corrupt_invariance poly_len in
        checkb "corrupted instance row is caught" true (fires "LINT003" o);
        let d = List.find (fun d -> d.D.code = "LINT003") o.Lint.Engine.findings in
        checkb "violation carries per-instance notes" true
          (List.length d.D.notes >= 2);
        (* a single-instance program gives the audit nothing to compare *)
        let o = lint ~fault:Lint.Rule.Corrupt_invariance no_cons in
        checkb "no multi-instance definition, no audit" false (fires "LINT003" o));
    Alcotest.test_case "LINT003-row-comparison" `Quick (fun () ->
        checkb "agreeing rows" true
          (Lint.Rules.invariant_rows [ (true, 1); (true, 1); (true, 1) ]);
        checkb "escape verdicts differ" false
          (Lint.Rules.invariant_rows [ (true, 1); (false, 1) ]);
        checkb "kept counts differ while escaping" false
          (Lint.Rules.invariant_rows [ (true, 1); (true, 2) ]);
        (* nothing escapes: k = 0 and s_i may vary with the instance *)
        checkb "kept counts may differ when nothing escapes" true
          (Lint.Rules.invariant_rows [ (false, 1); (false, 2) ]));
    Alcotest.test_case "LINT004-dead-spine" `Quick (fun () ->
        check_fires forwarded "LINT004";
        (* traversal is a real use *)
        check_clean no_cons "LINT004";
        (* the underscore convention opts out *)
        check_clean forwarded_exempt "LINT004");
    Alcotest.test_case "LINT005-unused-binding" `Quick (fun () ->
        check_fires unused_param "LINT005";
        check_clean guarded_reuse "LINT005";
        check_clean unused_exempt "LINT005";
        (* a letrec binding unreachable from the body *)
        check_fires "letrec f x = letrec g = cons 1 x in x in f [1]" "LINT005");
    Alcotest.test_case "LINT006-unreachable-branch" `Quick (fun () ->
        check_fires const_cond "LINT006";
        check_clean no_cons "LINT006");
    Alcotest.test_case "LINT008-fires-only-under-injection" `Quick (fun () ->
        (* on a sound solver pair the escape and sharing analyses agree,
           so the cross-check is silent on every real candidate *)
        check_clean guarded_reuse "LINT008";
        let o = lint ~fault:Lint.Rule.Corrupt_sharing guarded_reuse in
        checkb "seeded spine-sharing verdict is caught" true (fires "LINT008" o);
        checkb "the finding is an error" true
          (List.exists
             (fun d -> d.D.code = "LINT008" && d.D.severity = D.Error)
             o.Lint.Engine.findings);
        (* no reuse candidate: nothing to cross-check, even when seeded *)
        let o = lint ~fault:Lint.Rule.Corrupt_sharing no_cons in
        checkb "no candidate, no audit" false (fires "LINT008" o));
    Alcotest.test_case "dead-params-analysis" `Quick (fun () ->
        (* the dead-parameter evidence, seen through the rule: which
           definitions LINT004 reports a parameter of *)
        let dead_in src =
          List.filter_map
            (fun d ->
              if d.D.code = "LINT004" then
                List.find_opt
                  (fun f -> contains d.D.message ("parameter l of " ^ f))
                  [ "f"; "g" ]
              else None)
            (lint src).Lint.Engine.findings
        in
        (* pure forwarding, including through recursion *)
        checkb "forwarded param is dead" true
          (dead_in "letrec f n l = if n < 1 then 0 else f (n - 1) l in f 1 [1]"
          = [ "f" ]);
        (* forwarding only the tail: no cell of l ever reaches the
           result, so l is as dead as when forwarded whole *)
        checkb "tail-forwarded param is dead" true
          (dead_in "letrec f n l = if n < 1 then 0 else f (n - 1) (cdr l) in f 1 [1]"
          = [ "f" ]);
        (* mutual forwarding: f passes to g, g back to f — still dead *)
        let mut =
          "letrec f n l = if n < 1 then 0 else g (n - 1) l; \
           g n l = f n l in f 2 [1]"
        in
        checkb "mutual forwarding stays dead" true
          (List.sort compare (dead_in mut) = [ "f"; "g" ]);
        (* forwarding into a using definition makes the chain used *)
        check_clean
          "letrec len l = if null l then 0 else 1 + len (cdr l); g l = len l in g [1]"
          "LINT004";
        (* a parameter that never occurs is LINT005's business *)
        check_clean "letrec f x y = x in f 1 2" "LINT004");
  ]

(* ---- locations, suppression and configuration -------------------------------- *)

let findings_have_real_locations o =
  List.for_all (fun d -> not (Nml.Loc.is_dummy d.D.loc)) o.Lint.Engine.findings

let suppression_units =
  [
    Alcotest.test_case "parse-directive" `Quick (fun () ->
        checkb "plain comment" true (Lint.Suppress.parse_body " just words " = None);
        checkb "prefixed word is not a directive" true
          (Lint.Suppress.parse_body "nmlc-disabled" = None);
        checkb "bare directive" true (Lint.Suppress.parse_body " nmlc-disable " = Some []);
        checkb "one code" true
          (Lint.Suppress.parse_body "nmlc-disable lint001" = Some [ "LINT001" ]);
        checkb "comma list" true
          (Lint.Suppress.parse_body "nmlc-disable LINT001, LINT005"
          = Some [ "LINT001"; "LINT005" ]));
    Alcotest.test_case "preceding-line-suppresses" `Quick (fun () ->
        let o =
          lint "(* nmlc-disable LINT001 *)\nletrec f l = cons (car l) nil in f [1, 2]"
        in
        checkb "finding gone" false (fires "LINT001" o);
        checki "counted as suppressed" 1 o.Lint.Engine.suppressed);
    Alcotest.test_case "same-line-suppresses" `Quick (fun () ->
        let o =
          lint "letrec f l = cons (car l) nil in f [1, 2] (* nmlc-disable LINT001 *)"
        in
        checkb "finding gone" false (fires "LINT001" o);
        checki "counted as suppressed" 1 o.Lint.Engine.suppressed);
    Alcotest.test_case "other-code-does-not-suppress" `Quick (fun () ->
        let o =
          lint "(* nmlc-disable LINT005 *)\nletrec f l = cons (car l) nil in f [1, 2]"
        in
        checkb "LINT001 stays" true (fires "LINT001" o);
        checki "nothing suppressed" 0 o.Lint.Engine.suppressed);
    Alcotest.test_case "bare-directive-suppresses-everything" `Quick (fun () ->
        let o = lint "(* nmlc-disable *)\nletrec f x y = cons (car x) nil in f [1] [2]" in
        checki "all findings gone" 0 (List.length o.Lint.Engine.findings);
        checkb "all counted" true (o.Lint.Engine.suppressed >= 2));
    Alcotest.test_case "far-away-comment-does-not-suppress" `Quick (fun () ->
        let o =
          lint
            "(* nmlc-disable LINT001 *)\n\n\nletrec f l = cons (car l) nil in f [1, 2]"
        in
        checkb "LINT001 stays" true (fires "LINT001" o));
  ]

let config_units =
  [
    Alcotest.test_case "only-restricts" `Quick (fun () ->
        let config = { Lint.Registry.default with Lint.Registry.only = [ "LINT005" ] } in
        let o = lint ~config unused_param in
        checkb "LINT005 kept" true (fires "LINT005" o);
        checkb "LINT001 filtered" false (fires "LINT001" o));
    Alcotest.test_case "disable-drops" `Quick (fun () ->
        let config =
          { Lint.Registry.default with Lint.Registry.disabled = [ "LINT001" ] }
        in
        let o = lint ~config unused_param in
        checkb "LINT001 gone" false (fires "LINT001" o);
        checkb "LINT005 stays" true (fires "LINT005" o));
    Alcotest.test_case "severity-override" `Quick (fun () ->
        let config =
          {
            Lint.Registry.default with
            Lint.Registry.severities = [ ("LINT002", D.Error) ];
          }
        in
        let o = lint ~config guarded_reuse in
        let d = List.find (fun d -> d.D.code = "LINT002") o.Lint.Engine.findings in
        checkb "note promoted to error" true (d.D.severity = D.Error));
    Alcotest.test_case "default-severities" `Quick (fun () ->
        let o = lint guarded_reuse in
        let d = List.find (fun d -> d.D.code = "LINT002") o.Lint.Engine.findings in
        checkb "LINT002 defaults to note" true (d.D.severity = D.Note));
    Alcotest.test_case "registry-metadata" `Quick (fun () ->
        checki "eight rules" 8 (List.length Lint.Registry.all);
        List.iter
          (fun r ->
            checkb (r.Lint.Rule.code ^ " looks like LINT0xx") true
              (String.length r.Lint.Rule.code = 7
              && String.sub r.Lint.Rule.code 0 4 = "LINT");
            checkb (r.Lint.Rule.code ^ " has a summary") true (r.Lint.Rule.summary <> ""))
          Lint.Registry.all;
        let sorted = List.sort compare (Lint.Registry.codes ()) in
        checkb "codes are unique" true
          (List.length (List.sort_uniq compare sorted) = List.length sorted));
  ]

(* ---- the per-SCC findings cache ---------------------------------------------- *)

let tmp_counter = ref 0

let with_dir prefix f =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "nmlc-lint-%s-%d-%d" prefix (Unix.getpid ()) !tmp_counter)
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

let render o = Format.asprintf "%a" (D.render D.Human) o.Lint.Engine.findings

(* several SCCs so partial invalidation is observable: loner is
   independent of the append/rev chain *)
let cache_src =
  "letrec append x y = if null x then y else cons (car x) (append (cdr x) y); \
   rev l = if null l then nil else append (rev (cdr l)) (cons (car l) nil); \
   loner l = cons (car l) nil \
   in rev (append [1] [2])"

let cache_units =
  [
    Alcotest.test_case "warm-run-is-free-and-identical" `Quick (fun () ->
        with_dir "warm" @@ fun dir ->
        let store = Cache.Store.create dir in
        let cold = lint ~store cache_src in
        checkb "cold run misses" true (cold.Lint.Engine.scc_misses > 0);
        checkb "cold run evaluates" true (cold.Lint.Engine.evaluations > 0);
        let warm = lint ~store cache_src in
        checki "warm run evaluates nothing" 0 warm.Lint.Engine.evaluations;
        checki "warm run misses nothing" 0 warm.Lint.Engine.scc_misses;
        checkb "warm run hits" true (warm.Lint.Engine.scc_hits > 0);
        checks "byte-identical findings" (render cold) (render warm);
        checki "same suppressed count" cold.Lint.Engine.suppressed
          warm.Lint.Engine.suppressed);
    Alcotest.test_case "uncached-and-cached-agree" `Quick (fun () ->
        with_dir "agree" @@ fun dir ->
        let store = Cache.Store.create dir in
        let plain = lint cache_src in
        let cached = lint ~store cache_src in
        checks "identical findings" (render plain) (render cached));
    Alcotest.test_case "editing-one-def-respects-the-cone" `Quick (fun () ->
        with_dir "edit" @@ fun dir ->
        let store = Cache.Store.create dir in
        ignore (lint ~store cache_src);
        (* touch loner only: the append/rev records must replay *)
        let edited =
          replace_once cache_src ~old_part:"loner l = cons (car l) nil"
            ~new_part:"loner l = cons (car (cdr l)) nil"
        in
        let o = lint ~store edited in
        checkb "the changed SCC misses" true (o.Lint.Engine.scc_misses > 0);
        checkb "the untouched cone hits" true (o.Lint.Engine.scc_hits > 0));
    Alcotest.test_case "moving-a-definition-invalidates-its-record" `Quick (fun () ->
        with_dir "move" @@ fun dir ->
        let store = Cache.Store.create dir in
        let src = "letrec f l = cons (car l) nil in f [1, 2]" in
        let cold = lint ~store src in
        (* same definitions, shifted by a comment line: escape summaries
           may replay, but lint findings carry locations and must not *)
        let shifted = "(* moved *)\n" ^ src in
        let o = lint ~store shifted in
        checkb "shifted program recomputes" true (o.Lint.Engine.scc_misses > 0);
        let line d = d.D.loc.Nml.Loc.start_pos.Nml.Loc.line in
        checkb "findings follow the text" true
          (List.for_all2
             (fun a b -> line b = line a + 1)
             cold.Lint.Engine.findings o.Lint.Engine.findings));
    Alcotest.test_case "corrupted-records-are-misses" `Quick (fun () ->
        with_dir "corrupt" @@ fun dir ->
        let store = Cache.Store.create dir in
        let cold = lint ~store cache_src in
        (* smash every stored record *)
        Array.iter
          (fun shard ->
            let sdir = Filename.concat dir shard in
            if Sys.is_directory sdir then
              Array.iter
                (fun f ->
                  Out_channel.with_open_text (Filename.concat sdir f) (fun oc ->
                      Out_channel.output_string oc "{\"schema\": \"garbage\"}"))
                (Sys.readdir sdir))
          (Sys.readdir dir);
        let o = lint ~store cache_src in
        checki "nothing replays from garbage" 0 o.Lint.Engine.scc_hits;
        checks "findings recomputed identically" (render cold) (render o));
    Alcotest.test_case "fault-injection-bypasses-the-store" `Quick (fun () ->
        with_dir "fault" @@ fun dir ->
        let store = Cache.Store.create dir in
        ignore (lint ~store poly_len);
        let o = lint ~store ~fault:Lint.Rule.Corrupt_invariance poly_len in
        checkb "LINT003 fires despite a warm cache" true (fires "LINT003" o);
        checki "and reads nothing from it" 0 o.Lint.Engine.scc_hits;
        (* ... and the lie was not persisted *)
        let clean = lint ~store poly_len in
        checkb "store still clean" false (fires "LINT003" clean));
    Alcotest.test_case "config-applies-at-replay" `Quick (fun () ->
        with_dir "replay" @@ fun dir ->
        let store = Cache.Store.create dir in
        ignore (lint ~store cache_src);
        let config =
          { Lint.Registry.default with Lint.Registry.disabled = [ "LINT002" ] }
        in
        let o = lint ~config ~store cache_src in
        checki "replayed from cache" 0 o.Lint.Engine.scc_misses;
        checkb "disabled code filtered out of cached findings" false
          (fires "LINT002" o));
  ]

(* ---- SARIF against the vendored minimal schema -------------------------------- *)

(* A small JSON-Schema interpreter covering exactly the keywords the
   vendored schema uses: type, required, properties, items, enum,
   minItems, minimum.  Unknown keywords are rejected so the schema file
   cannot silently outgrow the interpreter. *)
let rec validate schema json path errors =
  let fail msg = errors := Printf.sprintf "%s: %s" path msg :: !errors in
  let known =
    [ "type"; "required"; "properties"; "items"; "enum"; "minItems"; "minimum" ]
  in
  match schema with
  | J.Obj fields ->
      List.iter
        (fun (k, _) ->
          if not (List.mem k known) then fail ("unknown schema keyword " ^ k))
        fields;
      (match J.member "type" schema with
      | Some (J.Str "object") -> (
          match json with J.Obj _ -> () | _ -> fail "expected an object")
      | Some (J.Str "array") -> (
          match json with J.Arr _ -> () | _ -> fail "expected an array")
      | Some (J.Str "string") -> (
          match json with J.Str _ -> () | _ -> fail "expected a string")
      | Some (J.Str "integer") -> (
          match json with
          | J.Num f when Float.is_integer f -> ()
          | _ -> fail "expected an integer")
      | Some _ -> fail "unsupported type"
      | None -> ());
      (match J.member "enum" schema with
      | Some (J.Arr allowed) ->
          if not (List.mem json allowed) then fail "value not in enum"
      | Some _ -> fail "malformed enum"
      | None -> ());
      (match (J.member "minimum" schema, json) with
      | Some (J.Num m), J.Num v -> if v < m then fail "below minimum"
      | _ -> ());
      (match (J.member "required" schema, json) with
      | Some (J.Arr req), (J.Obj _ as obj) ->
          List.iter
            (function
              | J.Str field ->
                  if J.member field obj = None then
                    fail ("missing required field " ^ field)
              | _ -> fail "malformed required")
            req
      | _ -> ());
      (match (J.member "properties" schema, json) with
      | Some (J.Obj props), (J.Obj fields : J.t) ->
          List.iter
            (fun (field, sub) ->
              match List.assoc_opt field props with
              | Some s -> validate s sub (path ^ "." ^ field) errors
              | None -> ())
            fields
      | _ -> ());
      (match (J.member "items" schema, json) with
      | Some s, J.Arr elems ->
          List.iteri
            (fun i e -> validate s e (Printf.sprintf "%s[%d]" path i) errors)
            elems
      | _ -> ());
      (match (J.member "minItems" schema, json) with
      | Some (J.Num m), J.Arr elems ->
          if List.length elems < int_of_float m then fail "too few items"
      | _ -> ())
  | _ -> fail "malformed schema node"

let sarif_schema =
  lazy
    (let name = "sarif-2.1.0-minimal.json" in
     let path = if Sys.file_exists name then name else Filename.concat "test" name in
     J.parse (In_channel.with_open_text path In_channel.input_all))

let schema_errors json =
  let errors = ref [] in
  validate (Lazy.force sarif_schema) json "$" errors;
  !errors

let check_valid_sarif name json =
  checks name "" (String.concat "; " (schema_errors json))

let sarif_units =
  [
    Alcotest.test_case "findings-validate" `Quick (fun () ->
        let o = lint unused_param in
        check_valid_sarif "two findings"
          (D.to_sarif ~rules:(Lint.Registry.sarif_rules ()) o.Lint.Engine.findings));
    Alcotest.test_case "empty-run-validates" `Quick (fun () ->
        check_valid_sarif "no findings"
          (D.to_sarif ~rules:(Lint.Registry.sarif_rules ()) []));
    Alcotest.test_case "notes-become-related-locations" `Quick (fun () ->
        let o = lint ~fault:Lint.Rule.Corrupt_invariance poly_len in
        let doc = D.to_sarif ~rules:(Lint.Registry.sarif_rules ()) o.Lint.Engine.findings in
        check_valid_sarif "LINT003 with notes" doc;
        checkb "relatedLocations present" true
          (contains (J.to_string doc) "relatedLocations"));
    Alcotest.test_case "LINT008-finding-validates-with-metadata" `Quick (fun () ->
        checkb "LINT008 has a SARIF rule row" true
          (List.mem_assoc "LINT008" (Lint.Registry.sarif_rules ()));
        let o = lint ~fault:Lint.Rule.Corrupt_sharing guarded_reuse in
        let doc = D.to_sarif ~rules:(Lint.Registry.sarif_rules ()) o.Lint.Engine.findings in
        check_valid_sarif "LINT008 finding" doc;
        checkb "LINT008 appears in the document" true
          (contains (J.to_string doc) "LINT008"));
    Alcotest.test_case "validator-rejects-broken-documents" `Quick (fun () ->
        (* prove the validator has teeth: drop a required field, then use
           an illegal level *)
        let o = lint unused_param in
        let doc = D.to_sarif o.Lint.Engine.findings in
        (match doc with
        | J.Obj fields ->
            let without_version = J.Obj (List.remove_assoc "version" fields) in
            checkb "missing version detected" true (schema_errors without_version <> [])
        | _ -> Alcotest.fail "sarif root is not an object");
        let bad_level =
          J.Obj
            [
              ("version", J.Str "2.1.0");
              ( "runs",
                J.Arr
                  [
                    J.Obj
                      [
                        ( "tool",
                          J.Obj [ ("driver", J.Obj [ ("name", J.Str "nmlc") ]) ] );
                        ( "results",
                          J.Arr
                            [
                              J.Obj
                                [
                                  ("level", J.Str "fatal");
                                  ( "message",
                                    J.Obj [ ("text", J.Str "boom") ] );
                                ];
                            ] );
                      ];
                  ] );
            ]
        in
        checkb "illegal level detected" true (schema_errors bad_level <> []));
    Alcotest.test_case "diagnostic-json-roundtrip" `Quick (fun () ->
        let o = lint ~fault:Lint.Rule.Corrupt_invariance poly_len in
        List.iter
          (fun d ->
            match D.of_json (D.to_json d) with
            | Some d' -> checkb "roundtrip" true (d = d')
            | None -> Alcotest.fail "of_json rejected to_json output")
          o.Lint.Engine.findings);
  ]

(* ---- locations: no finding may point nowhere ---------------------------------- *)

let location_units =
  [
    Alcotest.test_case "lint-findings-have-locations-on-the-corpus" `Quick (fun () ->
        List.iter
          (fun (name, src) ->
            let o = lint src in
            checkb (name ^ ": no dummy location") true (findings_have_real_locations o);
            checkb (name ^ ": no synthetic span in JSON") true
              (List.for_all
                 (fun d -> not (contains (J.to_string (D.to_json d)) "<synthetic>"))
                 o.Lint.Engine.findings))
          Check.Harness.builtin_corpus);
    Alcotest.test_case "vet-findings-have-locations-on-the-corpus" `Quick (fun () ->
        List.iter
          (fun (name, src) ->
            let s = Nml.Surface.of_string ~file:name src in
            let ir = (Optimize.Transform.optimize (Nml.Infer.infer_program s)).Optimize.Transform.ir in
            let ds, _ = Vet.Verify.audit ~source:s ir in
            checkb (name ^ ": vet diagnostics located") true
              (List.for_all (fun d -> not (Nml.Loc.is_dummy d.D.loc)) ds))
          Check.Harness.builtin_corpus);
  ]

(* ---- property tests ------------------------------------------------------------ *)

let prop_units =
  let count = 60 in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count ~name:"lint-never-crashes-and-is-deterministic"
         (QCheck.make Gen.gen_any_program) (fun src ->
           let a = lint src and b = lint src in
           render a = render b && a.Lint.Engine.suppressed = b.Lint.Engine.suppressed));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count ~name:"lint-cache-replay-is-identical"
         (QCheck.make Gen.gen_any_program) (fun src ->
           with_dir "prop" @@ fun dir ->
           let store = Cache.Store.create dir in
           let cold = lint ~store src in
           let warm = lint ~store src in
           render cold = render warm && warm.Lint.Engine.evaluations = 0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count ~name:"findings-always-carry-real-locations"
         (QCheck.make Gen.gen_any_program) (fun src ->
           findings_have_real_locations (lint src)));
  ]

let () =
  Alcotest.run "lint"
    [
      ("rules", rule_units);
      ("suppression", suppression_units);
      ("config", config_units);
      ("cache", cache_units);
      ("sarif", sarif_units);
      ("locations", location_units);
      ("properties", prop_units);
    ]

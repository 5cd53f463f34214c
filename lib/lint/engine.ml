(* The lint engine: runs the registry's rules over one program, with
   findings optionally persisted per SCC in the same content-addressed
   store as the escape summaries.

   Keying.  An SCC's lint record is keyed by a digest of

     - the lint schema version,
     - the SCC's *escape* summary key (which already covers the members'
       normalized bodies, the chain bound and every transitive callee),
     - the file name, and
     - each member's name, source span and raw source slice.

   The raw slice matters because lint findings, unlike escape summaries,
   carry locations and are sensitive to comments: touching anything that
   moves a definition's span or text must invalidate its record, while
   editing an unrelated definition must not.  The main expression and
   the program-scoped rules (LINT003's instance set is a whole-program
   property) are cached under a separate record keyed by the entire
   source.

   Records store findings at *default* severities; --only/--disable/
   --severity and suppression comments are applied at replay, so one
   record serves every configuration.  Fault injection bypasses the
   store entirely — a seeded lie must neither read stale truth nor
   poison the cache. *)

module A = Nml.Ast
module D = Nml.Diagnostic
module J = Nml.Json

(* v2 (PR8): the rule set gained the spine-liveness-backed LINT007, so
   pre-PR8 finding records must not replay.
   v3 (PR10): the rule set gained the sharing-backed LINT008.
   v4: LINT004 reads the spine-liveness verdict, so a parameter
   forwarded only as its tail now fires. *)
let schema_version = "nmlc/lint-cache-v4"

(* ---- source slices ---------------------------------------------------------- *)

let line_starts src =
  let n = String.length src in
  let starts = ref [ 0 ] in
  String.iteri (fun i c -> if c = '\n' && i + 1 < n then starts := (i + 1) :: !starts) src;
  Array.of_list (List.rev !starts)

let offset_of starts src (p : Nml.Loc.pos) =
  if p.Nml.Loc.line < 1 || p.Nml.Loc.line > Array.length starts then None
  else
    let off = starts.(p.Nml.Loc.line - 1) + (p.Nml.Loc.col - 1) in
    if off < 0 || off > String.length src then None else Some off

let slice starts src (loc : Nml.Loc.t) =
  if Nml.Loc.is_dummy loc then ""
  else
    match
      (offset_of starts src loc.Nml.Loc.start_pos, offset_of starts src loc.Nml.Loc.end_pos)
    with
    | Some a, Some b when a <= b -> String.sub src a (b - a)
    | _ -> ""

(* ---- cache keys and records -------------------------------------------------- *)

let scc_key ~escape_key ~file ~descriptors =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (schema_version :: escape_key :: file :: List.sort compare descriptors)))

let program_key ~file ~src =
  Digest.to_hex (Digest.string (String.concat "\n" [ schema_version; "program"; file; src ]))

let record_to_json ~key findings =
  J.Obj
    [
      ("schema", J.Str schema_version);
      ("key", J.Str key);
      ("findings", J.Arr (List.map D.to_json findings));
    ]

(* Any shape mismatch is a miss: an unreadable record is recomputed and
   overwritten, never trusted. *)
let record_of_json ~key json =
  match (J.member "schema" json, J.member "key" json, J.member "findings" json) with
  | Some (J.Str s), Some (J.Str k), Some (J.Arr fs)
    when s = schema_version && k = key ->
      let decoded = List.map D.of_json fs in
      if List.for_all Option.is_some decoded then
        Some (List.map Option.get decoded)
      else None
  | _ -> None

(* ---- running ----------------------------------------------------------------- *)

type outcome = {
  findings : D.t list;
  suppressed : int;
  defs : int;
  evaluations : int;
  scc_hits : int;
  scc_misses : int;
}

let run_rules_scc ctx ~members =
  List.concat_map (fun r -> r.Rule.check_scc ctx ~members) Registry.all

let run_rules_program ctx =
  List.concat_map (fun r -> r.Rule.check_program ctx) Registry.all

let run ?(config = Registry.default) ?store ?(fault = Rule.No_fault) ~file src =
  let prog = Nml.Front.of_string ~file src in
  let surface = prog.Nml.Infer.surface in
  let ctx =
    {
      Rule.surface;
      prog;
      solver = lazy (Escape.Fixpoint.make prog);
      spinelive = lazy (Framework.Spinelive.Solver.make prog);
      alias = lazy (Framework.Alias.Solver.make prog);
      fault;
    }
  in
  let hits = ref 0 and misses = ref 0 in
  let raw =
    match store with
    | Some store when fault = Rule.No_fault ->
        let starts = line_starts src in
        let skey = Cache.Skey.of_program prog in
        let scc_findings =
          List.concat_map
            (fun (escape_key, members) ->
              let descriptors =
                List.map
                  (fun name ->
                    let loc, text =
                      match List.assoc_opt name surface.Nml.Surface.defs with
                      | Some rhs ->
                          let l = A.loc rhs in
                          (Nml.Loc.to_string l, slice starts src l)
                      | None -> ("", "")
                    in
                    Printf.sprintf "%s@%s=%s" name loc text)
                  members
              in
              let key = scc_key ~escape_key ~file ~descriptors in
              match Option.bind (Cache.Store.load store ~key) (record_of_json ~key) with
              | Some findings ->
                  incr hits;
                  findings
              | None ->
                  incr misses;
                  let findings = run_rules_scc ctx ~members in
                  Cache.Store.save store ~key (record_to_json ~key findings);
                  findings)
            (Cache.Skey.sccs skey)
        in
        let key = program_key ~file ~src in
        let program_findings =
          match Option.bind (Cache.Store.load store ~key) (record_of_json ~key) with
          | Some findings ->
              incr hits;
              findings
          | None ->
              incr misses;
              let findings = run_rules_program ctx in
              Cache.Store.save store ~key (record_to_json ~key findings);
              findings
        in
        scc_findings @ program_findings
    | _ ->
        let members = List.map fst surface.Nml.Surface.defs in
        run_rules_scc ctx ~members @ run_rules_program ctx
  in
  let configured = Registry.apply config raw in
  let kept, suppressed = Suppress.apply (Suppress.scan ~file src) configured in
  {
    findings = List.sort D.compare kept;
    suppressed;
    defs = List.length surface.Nml.Surface.defs;
    evaluations =
      (if Lazy.is_val ctx.Rule.solver then
         Escape.Fixpoint.evaluations (Lazy.force ctx.Rule.solver)
       else 0);
    scc_hits = !hits;
    scc_misses = !misses;
  }

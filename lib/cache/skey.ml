(* Content-addressed keys for the persistent summary cache.

   One key per SCC of the definition-level callgraph.  The key digests
   everything the SCC's summaries can depend on, written into one buffer
   per SCC and digested once:

   - the schema version (a format bump invalidates every entry) and the
     analysis name,
   - the chain bound of the SCC's own cone (the largest list depth of any
     type in a member's instantiated body),
   - each member's name, [Ty.key] of its simplest-instance type and
     [Ast.key] of its body (location-free, so whitespace and comments
     don't move the key),
   - the keys of every callee SCC.

   Each member is typed once, for its type and its depth; nothing is
   printed.  Names and type keys are length-prefixed and body keys are
   prefix codes, so the buffer is a prefix code too: two SCCs share a
   key only when every digested part is equal.

   The last point makes dirtiness transitive along [Nml.Callgraph]:
   editing a definition changes its SCC's key and, through the recursive
   digest, the key of every SCC that (transitively) reads it — while the
   SCCs it depends on keep their keys and stay warm. *)

module Infer = Nml.Infer
module Ty = Nml.Ty

(* v2 (PR8): summary payloads are namespaced per analysis Spec — the
   analysis name is digested into every key and stamped into every
   record.  Pre-PR8 v1 shards therefore miss cleanly on both the schema
   stamp and the key itself; they are never mis-decoded.

   The keys were re-encoded (body and type keys instead of printed
   text) without a bump: the record format is unchanged, and an old
   record is only ever found under its old key, so it is never read
   again — an existing cache misses once per SCC and refills. *)
let schema_version = "nmlc/summary-cache-v2"

type t = {
  sccs : (string * string list) list;  (* (key, members) dependencies first *)
  by_def : (string, string) Hashtbl.t;  (* member name -> its SCC's key *)
}

let sccs t = t.sccs
let key_of_def t name = Hashtbl.find_opt t.by_def name

(* One inference of a member's simplest instance: its type key and the
   depth of its cone. *)
let member prog name =
  let tast = Infer.instantiate_def prog name None in
  let d = ref 0 in
  Nml.Tast.iter_tys (fun ty -> d := max !d (Ty.max_list_depth ty)) tast;
  (Ty.key tast.Nml.Tast.ty, !d)

let of_program ?(analysis = "escape") prog =
  let cg = Nml.Callgraph.of_program prog in
  let by_def = Hashtbl.create 16 in
  let b = Buffer.create 1024 in
  let sccs =
    List.map
      (fun members ->
        let sorted = List.sort String.compare members in
        let typed = List.map (member prog) sorted in
        let d = List.fold_left (fun acc (_, d) -> max acc d) 0 typed in
        let callee_keys =
          List.concat_map
            (fun m ->
              List.filter_map
                (fun r ->
                  if List.mem r members then None else Hashtbl.find_opt by_def r)
                (Nml.Callgraph.refs cg m))
            sorted
          |> List.sort_uniq String.compare
        in
        Buffer.clear b;
        Nml.Ast.add_name b schema_version;
        Nml.Ast.add_name b analysis;
        Buffer.add_string b (string_of_int d);
        Buffer.add_char b ';';
        Buffer.add_string b (string_of_int (List.length sorted));
        Buffer.add_char b ';';
        List.iter2
          (fun name (ty, _) ->
            Nml.Ast.add_name b name;
            Nml.Ast.add_name b ty;
            Nml.Ast.add_key b (Infer.def_rhs prog name))
          sorted typed;
        (* callee keys are fixed-width hex digests *)
        List.iter (Buffer.add_string b) callee_keys;
        let key = Digest.to_hex (Digest.string (Buffer.contents b)) in
        List.iter (fun m -> Hashtbl.replace by_def m key) members;
        (key, members))
      (Nml.Callgraph.sccs cg)
  in
  { sccs; by_def }

(* Content-addressed keys for the persistent summary cache.

   One key per SCC of the definition-level callgraph.  The key digests
   everything the SCC's summaries can depend on:

   - the schema version (a format bump invalidates every entry),
   - each member's name, simplest-instance type and *normalized* body
     (the pretty-printed AST, so whitespace and comments don't move the
     key),
   - the chain bound of the SCC's own cone (the largest list depth of any
     type in a member's instantiated body),
   - the keys of every callee SCC.

   The last point makes dirtiness transitive along [Nml.Callgraph]:
   editing a definition changes its SCC's key and, through the recursive
   digest, the key of every SCC that (transitively) reads it — while the
   SCCs it depends on keep their keys and stay warm. *)

module Infer = Nml.Infer
module Ty = Nml.Ty

(* v2 (PR8): summary payloads are namespaced per analysis Spec — the
   analysis name is digested into every key and stamped into every
   record.  Pre-PR8 v1 shards therefore miss cleanly on both the schema
   stamp and the key itself; they are never mis-decoded. *)
let schema_version = "nmlc/summary-cache-v2"

type t = {
  sccs : (string * string list) list;  (* (key, members) dependencies first *)
  by_def : (string, string) Hashtbl.t;  (* member name -> its SCC's key *)
}

let sccs t = t.sccs
let key_of_def t name = Hashtbl.find_opt t.by_def name

(* A member's descriptor and its cone depth, from one inference of its
   simplest instance. *)
let member prog name =
  let tast = Infer.instantiate_def prog name None in
  let d = ref 0 in
  Nml.Tast.iter_tys (fun ty -> d := max !d (Ty.max_list_depth ty)) tast;
  let body = Infer.def_rhs prog name in
  ( Printf.sprintf "%s : %s = %s" name (Ty.to_string tast.Nml.Tast.ty)
      (Nml.Pretty.to_string body),
    !d )

let of_program ?(analysis = "escape") prog =
  let cg = Nml.Callgraph.of_program prog in
  let by_def = Hashtbl.create 16 in
  let sccs =
    List.map
      (fun members ->
        let sorted = List.sort String.compare members in
        let descriptors, depths = List.split (List.map (member prog) sorted) in
        let d = List.fold_left max 0 depths in
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
        let key =
          Digest.to_hex
            (Digest.string
               (String.concat "\n"
                  ((schema_version
                   :: Printf.sprintf "analysis=%s" analysis
                   :: Printf.sprintf "d=%d" d :: descriptors)
                  @ ("callees:" :: callee_keys))))
        in
        List.iter (fun m -> Hashtbl.replace by_def m key) members;
        (key, members))
      (Nml.Callgraph.sccs cg)
  in
  { sccs; by_def }

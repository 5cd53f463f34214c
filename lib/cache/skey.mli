(** Content-addressed keys for the persistent summary cache: one hex
    digest per SCC of the definition callgraph, covering the schema
    version, the analysis name, the cone's chain bound, each member's
    name, {!Nml.Ty.key} of its simplest-instance type and
    {!Nml.Ast.key} of its body, and — recursively — the keys of every
    callee SCC, so editing a definition re-keys exactly its SCC and its
    transitive readers.

    All of it is written into one buffer per SCC and digested once; each
    member is typed once and nothing is pretty-printed.  These keys
    replaced digests of printed bodies and types without a schema bump:
    the stored record format did not change, and a record under an old
    key is simply never looked up again, so an existing cache misses
    once per SCC. *)

val schema_version : string
(** Digested into every key and stamped into every stored record; bump it
    to invalidate the on-disk format wholesale. *)

type t

val of_program : ?analysis:string -> Nml.Infer.program -> t
(** [analysis] (default ["escape"]) is the registered Spec the keys
    namespace: the same program stores each analysis' summaries under
    distinct keys, so warm reruns stay at zero evaluations per
    analysis and a record can never be decoded by the wrong Spec. *)

val sccs : t -> (string * string list) list
(** [(key, member names)] per SCC, dependencies first. *)

val key_of_def : t -> string -> string option
(** The key of the SCC a definition belongs to. *)

(** JSON codec for definition summaries and the cache-aware analysis.

    The persistent cache stores, per callgraph SCC, the settled
    global-test summaries of the member definitions — the exact data the
    report printer consumes ({!Escape.Report.def_summary}), so a replayed
    entry renders bit-identically to a fresh solve. *)

type outcome = Escape.Report.def_summary Engine.outcome
(** The summaries, one per definition in program order, and the
    engine's counters: entry evaluations ([0] on a fully warm run), SCC
    records served from the store and SCC records (re)computed. *)

val analyze : ?store:Store.t -> Nml.Infer.program -> outcome
(** Analyzes a whole program.  Without a store this is exactly a fresh
    solve; with one, each SCC's summaries are looked up by content key
    ({!Skey}) and only missing SCCs are solved (and written back). *)

(** {2 Codec internals, exposed for the cache unit tests} *)

val def_to_json : Escape.Report.def_summary -> Nml.Json.t
val def_of_json : Nml.Json.t -> Escape.Report.def_summary
val record_to_json : key:string -> Escape.Report.def_summary list -> Nml.Json.t

val record_of_json :
  key:string -> members:string list -> Nml.Json.t -> Escape.Report.def_summary list option
(** [None] on any schema, key or member mismatch — a miss, never an
    error. *)

exception Decode of string

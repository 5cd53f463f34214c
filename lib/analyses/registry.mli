(** The analysis registry: every framework Spec the driver can run, by
    name.  All entries are cached through {!Cache.Engine} under their own
    key namespace, so a warm rerun of any analysis performs zero solver
    evaluations. *)

type outcome = {
  output : string;  (** rendered report, one block per definition *)
  defs : int;
  evaluations : int;  (** solver entry evaluations; [0] on a warm run *)
  scc_hits : int;
  scc_misses : int;
}

type entry = {
  name : string;  (** canonical name; also the cache-key namespace *)
  aliases : string list;  (** accepted alternative spellings *)
  domain : string;  (** one-line abstract-domain description *)
  doc : string;  (** one-line description of the question answered *)
  run : ?store:Cache.Store.t -> Nml.Infer.program -> outcome;
}

val all : entry list
val names : string list

val find : string -> entry option
(** Look up by canonical name or alias. *)

val batch_job :
  entry -> store:Cache.Store.t option -> ?source:string -> string -> Cache.Batch.result
(** A per-file job with the batch-pool result shape, so any registered
    analysis distributes over [nmlc batch --jobs] like the escape
    default.  With [source], that text instead of the file's ([path]
    then only labels diagnostics). *)

(** {2 Cache specs, exposed for the differential and cache tests} *)

val usage_spec : Framework.Usage.def_report Cache.Engine.spec
val spinelive_spec : Framework.Spinelive.def_report Cache.Engine.spec
val product_spec : Product.def_report Cache.Engine.spec
val alias_spec : Framework.Alias.def_report Cache.Engine.spec

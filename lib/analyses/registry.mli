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

type job = store:Cache.Store.t option -> ?source:string -> string -> Cache.Batch.result
(** A per-file job with the batch-pool result shape.  With [source], that
    text instead of the file's ([path] then only labels diagnostics). *)

type entry = {
  name : string;  (** canonical name; also the cache-key namespace *)
  aliases : string list;  (** accepted alternative spellings *)
  domain : string;  (** one-line abstract-domain description *)
  doc : string;  (** one-line description of the question answered *)
  run : ?store:Cache.Store.t -> Nml.Infer.program -> outcome;
  job : job;
      (** what [nmlc batch --analysis] and the daemon's [analyze] run per
          file; escape's is {!Cache.Batch.analyze_file} /
          {!Cache.Batch.analyze_source}, and every job prints what [run]
          renders *)
}

val all : entry list
val names : string list

val find : string -> entry option
(** Look up by canonical name or alias. *)

val batch_job : entry -> job
(** The entry's per-file job: every analysis, escape included, reaches
    the batch pool and the daemon through it. *)

(** {2 Cache specs, exposed for the differential and cache tests} *)

val usage_spec : Framework.Usage.def_report Cache.Engine.spec
val spinelive_spec : Framework.Spinelive.def_report Cache.Engine.spec
val product_spec : Product.def_report Cache.Engine.spec
val alias_spec : Framework.Alias.def_report Cache.Engine.spec

(** The analysis registry: every framework Spec the driver can run, by
    name.  All entries are cached through {!Cache.Engine} under their own
    key namespace, so a warm rerun of any analysis performs zero solver
    evaluations.  Each entry renders a {!Cache.Batch.result}, the one
    record [nmlc analyze --analysis], [nmlc batch] and the daemon print
    from. *)

type entry = {
  name : string;  (** canonical name; also the cache-key namespace *)
  aliases : string list;  (** accepted alternative spellings *)
  domain : string;  (** one-line abstract-domain description *)
  doc : string;  (** one-line description of the question answered *)
  run : ?store:Cache.Store.t -> path:string -> Nml.Infer.program -> Cache.Batch.result;
      (** the rendered report, one block per definition, with the
          engine's counters; escape's is {!Cache.Batch.of_program}.
          Unprotected; [path] only labels the result. *)
}

val all : entry list
val names : string list

val find : string -> entry option
(** Look up by canonical name or alias. *)

val job : entry -> Cache.Batch.job
(** {!Cache.Batch.job} over the entry's [run]: every analysis, escape
    included, reaches [nmlc batch] and the daemon through it. *)

(** {2 Cache specs, exposed for the differential and cache tests} *)

val usage_spec : Framework.Usage.def_report Cache.Engine.spec
val spinelive_spec : Framework.Spinelive.def_report Cache.Engine.spec
val product_spec : Product.def_report Cache.Engine.spec
val alias_spec : Framework.Alias.def_report Cache.Engine.spec

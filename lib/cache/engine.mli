(** The analysis-agnostic cached analysis: per-SCC content-addressed
    persistence for any registered Spec, parameterized by the analysis'
    summary codec and solve session.  [Summary] instantiates it for the
    escape analysis; [Analyses.Registry] for every other Spec. *)

type 'summary session = {
  summarize : string -> 'summary;
      (** settled summary of one definition, by name *)
  evaluations : unit -> int;  (** solver entry evaluations so far *)
}

type 'summary spec = {
  analysis : string;  (** registry name; also the [Skey] namespace *)
  def_name : 'summary -> string;
  to_json : 'summary -> Nml.Json.t;
  of_json : Nml.Json.t -> 'summary;
      (** may raise; any exception makes the record a miss *)
  session : Nml.Infer.program -> 'summary session;
      (** created lazily, on the first SCC miss *)
}

type 'summary outcome = {
  summaries : 'summary list;  (** one per definition, program order *)
  evaluations : int;  (** solver entry evaluations actually performed *)
  scc_hits : int;
  scc_misses : int;
}

val record_to_json : 'summary spec -> key:string -> 'summary list -> Nml.Json.t

val record_of_json :
  'summary spec ->
  key:string ->
  members:string list ->
  Nml.Json.t ->
  'summary list option
(** [None] on any mismatch — schema, analysis stamp, key, member set, or
    a decoder exception: the caller treats it as a miss. *)

val analyze : 'summary spec -> ?store:Store.t -> Nml.Infer.program -> 'summary outcome
(** Without [store], one cold session summarizes every definition.  With
    it, warm SCCs are decoded from their stored records (a record that
    does not decode is a miss) and only the missing SCCs' members are
    solved; a fully warm program performs zero entry
    evaluations. *)

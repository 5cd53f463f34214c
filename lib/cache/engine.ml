(* The analysis-agnostic half of the summary cache: any registered Spec
   gets per-SCC content-addressed persistence by describing its summary
   codec and a solve session.  This is the machinery [Summary] always
   had for the escape analysis, factored out so the usage and
   spine-liveness analyses (and any future Spec) inherit it — each under
   its own key namespace ([Skey.of_program ~analysis]), so one program
   stores one record per (SCC, analysis) and a record can never be
   decoded by the wrong Spec.

   Abstract values contain closures and cannot be persisted; what the
   reports actually consume — and therefore what the cache stores — is
   the per-definition summary data behind them.  A fully warm program is
   reported without constructing a solver at all (zero entry
   evaluations); a partial hit builds one session and summarizes only
   the missing SCCs' members, whose solve demand-evaluates just their
   cones. *)

module J = Nml.Json

type 'summary session = {
  summarize : string -> 'summary;  (* definition name -> settled summary *)
  evaluations : unit -> int;  (* solver entry evaluations so far *)
}

type 'summary spec = {
  analysis : string;  (* registry name; also the Skey namespace *)
  def_name : 'summary -> string;
  to_json : 'summary -> J.t;
  of_json : J.t -> 'summary;  (* may raise; any exception is a miss *)
  session : Nml.Infer.program -> 'summary session;  (* created on first miss *)
}

type 'summary outcome = {
  summaries : 'summary list;  (* one per definition, program order *)
  evaluations : int;  (* solver entry evaluations actually performed *)
  scc_hits : int;
  scc_misses : int;
}

let record_to_json spec ~key summaries =
  J.Obj
    [
      ("schema", J.Str Skey.schema_version);
      ("analysis", J.Str spec.analysis);
      ("key", J.Str key);
      ("defs", J.Arr (List.map spec.to_json summaries));
    ]

(* [None] on any shape mismatch: the caller treats it as a miss. *)
let record_of_json spec ~key ~members j =
  match
    ( J.str (J.get "schema" j),
      J.str (J.get "analysis" j),
      J.str (J.get "key" j),
      List.map spec.of_json (J.arr (J.get "defs" j)) )
  with
  | exception _ -> None
  | schema, analysis, stored_key, defs ->
      let names = List.sort String.compare (List.map spec.def_name defs) in
      if
        String.equal schema Skey.schema_version
        && String.equal analysis spec.analysis
        && String.equal stored_key key
        && names = List.sort String.compare members
      then Some defs
      else None

let lookup store ~key ~decode ~encode ~hits ~misses compute =
  match Option.bind (Store.load store ~key) decode with
  | Some v ->
      incr hits;
      v
  | None ->
      incr misses;
      let v = compute () in
      Store.save store ~key (encode v);
      v

let analyze spec ?store prog =
  match store with
  | None ->
      let s = spec.session prog in
      let summaries =
        List.map (fun (name, _) -> s.summarize name) prog.Nml.Infer.schemes
      in
      { summaries; evaluations = s.evaluations (); scc_hits = 0; scc_misses = 0 }
  | Some store ->
      let keys = Skey.of_program ~analysis:spec.analysis prog in
      let by_name = Hashtbl.create 16 in
      let session = ref None in
      let the_session () =
        match !session with
        | Some s -> s
        | None ->
            let s = spec.session prog in
            session := Some s;
            s
      in
      let hits = ref 0 and misses = ref 0 in
      List.iter
        (fun (key, members) ->
          (* a record that does not decode (old schema, another
             analysis, a different member set) is a miss *)
          let defs =
            lookup store ~key ~hits ~misses
              ~decode:(record_of_json spec ~key ~members)
              ~encode:(record_to_json spec ~key)
              (fun () -> List.map (the_session ()).summarize members)
          in
          List.iter (fun d -> Hashtbl.replace by_name (spec.def_name d) d) defs)
        (Skey.sccs keys);
      {
        summaries =
          List.map (fun (name, _) -> Hashtbl.find by_name name) prog.Nml.Infer.schemes;
        evaluations =
          (match !session with None -> 0 | Some s -> s.evaluations ());
        scc_hits = !hits;
        scc_misses = !misses;
      }

(* The analysis-agnostic fixpoint engine, factored over a {!Spec.S}: one
   worklist solver for every analysis.  Recorded read frames,
   recursive-descent fresh solves, Tarjan SCC condensation settled
   dependencies-first, selective invalidation pushed from the touched
   source, per-solver state isolation and cap-and-widen are inherited by
   any Spec instance; the read frames and sources come from {!Deps},
   which every analysis shares.  Convergence is decided by the Spec's [equal]
   ([Dvalue.equal] for the escape analysis).

   The solver also owns the per-definition facts every lookup needs.  By
   Theorem 1 only the simplest monomorphic instance of a definition has
   to be analysed, so that instance's type is a fixed fact of the
   program: [instance_ty] infers it once per solver and memoizes it, and
   the same table answers [is_def].  Entries are keyed by the definition
   and {!Nml.Ty.key} of the instance — written into a buffer, one key
   per printed type.

   The [stats] type lives outside the functor on purpose: it is shared
   across all instantiations, so every analysis reports the same
   record. *)

module Ty = Nml.Ty
module Tast = Nml.Tast
module Infer = Nml.Infer

type stats = {
  stats_passes : int;
  stats_iterations : int;
  stats_entries : int;
  stats_evaluations : int;
  stats_sccs : int;
      (* components of the last sweep's condensation: 0 when recursive
         descent settled everything and no sweep ran *)
  stats_largest_scc : int;
  stats_cache_hits : int;
  stats_cache_misses : int;
  stats_cache_invalidated : int;
  stats_dbound : int;
  stats_capped : bool;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v 0>engine              worklist@,\
     passes              %d@,\
     entries             %d@,\
     entry evaluations   %d@,\
     iterations          %d@,\
     sccs                %d (largest %d)@,\
     application cache   %d hits, %d misses, %d invalidated@,\
     chain bound d       %d@,\
     capped              %b@]"
    s.stats_passes s.stats_entries s.stats_evaluations
    s.stats_iterations s.stats_sccs s.stats_largest_scc s.stats_cache_hits
    s.stats_cache_misses s.stats_cache_invalidated s.stats_dbound s.stats_capped

module Make (S : Spec.S) = struct
  type entry = {
    name : string;
    inst : Ty.t;
    tast : Tast.texpr;
    source : Deps.source;  (* generation stamp; touched when [value] changes *)
    mutable value : S.value;
    mutable deps : entry list Lazy.t;  (* entries read during the last evaluation *)
    mutable dirty : bool;  (* a dependency changed since the last evaluation *)
    mutable evals : int;
    mutable in_progress : bool;  (* on the recursive-descent evaluation stack *)
    mutable idx : int;  (* scratch index for the condensation *)
  }

  type t = {
    prog : Infer.program;
    state : S.state;  (* this solver's private engine state *)
    cache : (string * string, entry) Hashtbl.t;  (* (name, [Ty.key] of the instance) *)
    simplest : (string, Ty.t Lazy.t) Hashtbl.t;  (* one per definition: its simplest instance *)
    by_sid : (int, entry) Hashtbl.t;  (* source id -> entry *)
    mutable order : entry list;  (* insertion order, newest first *)
    mutable dbound : int;
    mutable stable : bool;
    mutable passes : int;
    mutable evaluated : int;  (* top-level entry evaluations *)
    mutable scc_count : int;  (* components in the last condensation *)
    mutable largest_scc : int;
    max_iters : int;
    hits0 : int;  (* [state]'s memo counters at creation time *)
    misses0 : int;
    invalidated0 : int;
    mutable ctx : S.ctx;  (* hooks back into this record *)
  }

  let absorb_tree_depth t tast =
    Tast.iter_tys (fun ty -> t.dbound <- max t.dbound (Ty.max_list_depth ty)) tast;
    S.ensure_d t.dbound

  let is_def t name = Hashtbl.mem t.simplest name

  (* The result is fully ground, so sharing it between callers is safe. *)
  let instance_ty t name =
    match Hashtbl.find_opt t.simplest name with
    | Some ty -> Lazy.force ty
    | None -> invalid_arg (Printf.sprintf "Fixpoint.instance_ty: unknown definition %s" name)

  (* ---- evaluation -------------------------------------------------------- *)

  (* One evaluation of an entry: run the transfer function on its body
     and compare against the current value, all inside one read frame.
     The comparison matters for the read set: evaluating a definition
     mostly builds closures, and the reads of other entries happen when
     those closures are probed — which [S.equal] does.  The frame's read
     set is therefore the entry's true dependency set.  The frame watches
     it: the first touch of a source in it makes the entry dirty.  On a
     change the value is joined upward and the entry's source is touched,
     which stales every memo that read it and dirties every reader.  The
     read set itself is flattened into [deps] only if a sweep needs it. *)
  let rec evaluate t e =
    e.dirty <- false;
    e.evals <- e.evals + 1;
    t.evaluated <- t.evaluated + 1;
    S.record_iteration t.ctx;
    S.begin_evaluation ();
    let grown, reads =
      Deps.watch
        ~notify:(fun () -> e.dirty <- true)
        (fun () ->
          let v = S.transfer t.ctx e.tast in
          if S.equal ~d:t.dbound e.value v then None
          else Some (S.join e.value v))
    in
    e.deps <-
      lazy
        (List.filter_map
           (fun (s, _gen) -> Hashtbl.find_opt t.by_sid (Deps.id s))
           (Deps.sources reads));
    match grown with
    | None -> ()
    | Some v ->
        e.value <- v;
        Deps.touch e.source

  (* First solve of a freshly demanded entry, called from the global hook:
     recursive descent.  Dependencies demanded during the evaluation are
     solved (recursively) before their value is returned, so on a
     cycle-free path every entry is evaluated exactly once, against
     already-final dependencies.  A self-cycle re-dirties the entry
     through its recorded self-dependency; the local loop iterates it to
     its own fixpoint. *)
  and solve_fresh t e =
    e.in_progress <- true;
    Fun.protect ~finally:(fun () -> e.in_progress <- false) @@ fun () ->
    evaluate t e;
    let n = ref 0 in
    while e.dirty && !n < t.max_iters do
      incr n;
      evaluate t e
    done

  and demand t name ty =
    let k = (name, Ty.key ty) in
    match Hashtbl.find_opt t.cache k with
    | Some e -> e
    | None ->
        let tast = Infer.instantiate_def t.prog name (Some ty) in
        absorb_tree_depth t tast;
        let e =
          {
            name;
            inst = ty;
            tast;
            source = Deps.source ();
            value = S.bottom tast.Tast.ty;
            deps = Lazy.from_val [];
            dirty = false;
            evals = 0;
            in_progress = false;
            idx = -1;
          }
        in
        Hashtbl.add t.cache k e;
        Hashtbl.add t.by_sid (Deps.id e.source) e;
        t.order <- e :: t.order;
        t.stable <- false;
        e

  and global_hook t name ty =
    if not (is_def t name) then
      invalid_arg (Printf.sprintf "Fixpoint: unknown identifier %s" name);
    let e = demand t name ty in
    if e.evals = 0 && not e.in_progress then solve_fresh t e;
    (* record the read after any recursive solve: the caller consumes the
       settled value, not the intermediate iterates *)
    Deps.note_read e.source;
    e.value

  let make ?(max_iters = 200) prog =
    let state = S.create_state () in
    let hits0, misses0 = S.with_state state S.memo_stats in
    let simplest = Hashtbl.create 32 in
    List.iter
      (fun (name, _) ->
        Hashtbl.replace simplest name (lazy (Infer.simplest_instance prog name)))
      prog.Infer.schemes;
    let t =
      {
        prog;
        state;
        cache = Hashtbl.create 32;
        simplest;
        by_sid = Hashtbl.create 32;
        order = [];
        dbound = 0;
        stable = true;
        passes = 0;
        evaluated = 0;
        scc_count = 0;
        largest_scc = 0;
        max_iters;
        hits0;
        misses0;
        invalidated0 = S.with_state state S.invalidations;
        ctx =
          S.make_ctx
            ~d:(fun () -> 0)
            ~global:(fun name _ ->
              invalid_arg
                (Printf.sprintf "Fixpoint: %s demanded before initialization" name))
            ~max_iters;
      }
    in
    (* the real context closes over [t]; the placeholder above only
       exists because the record cannot recursively mention itself
       through a function call *)
    t.ctx <-
      S.make_ctx
        ~d:(fun () -> t.dbound)
        ~global:(fun name ty -> global_hook t name ty)
        ~max_iters;
    let main = Infer.main_ground prog in
    S.with_state state (fun () -> absorb_tree_depth t main);
    t

  let with_state t f = S.with_state t.state f

  let of_source ?max_iters src =
    make ?max_iters (Infer.infer_program (Nml.Surface.of_string src))

  let program t = t.prog
  let d t = t.dbound

  (* Every touch may notify readers, so no entry is clean until all of
     them are done. *)
  let widen_all t =
    List.iter
      (fun e ->
        e.value <- S.widen ~d:t.dbound e.tast.Tast.ty e.value;
        Deps.touch e.source;
        if e.evals = 0 then e.evals <- 1)
      t.order;
    List.iter (fun e -> e.dirty <- false) t.order;
    S.set_capped t.ctx;
    t.stable <- true

  exception Widened

  (* Condense the recorded instance-level dependency graph into SCCs and
     settle the components dependencies-first: within a component, a
     worklist re-evaluates dirty members until none remain (a change
     re-dirties only the entries whose read set holds it); entries outside
     any cycle are already final from the recursive descent and are not
     touched at all. *)
  let sweep t =
    let entries = Array.of_list (List.rev t.order) in
    let n = Array.length entries in
    Array.iteri (fun i e -> e.idx <- i) entries;
    let succs i =
      List.filter_map
        (fun d -> if d.idx >= 0 && d.idx < n && entries.(d.idx) == d then Some d.idx else None)
        (Lazy.force entries.(i).deps)
    in
    let comps = Nml.Callgraph.Scc.compute ~n ~succs in
    t.scc_count <- List.length comps;
    t.largest_scc <- List.fold_left (fun a c -> max a (List.length c)) 0 comps;
    List.iter
      (fun comp ->
        let members = List.map (fun i -> entries.(i)) comp in
        let budget = ref (t.max_iters * (List.length members + 1)) in
        let rec drain () =
          match List.find_opt (fun e -> e.dirty) members with
          | None -> ()
          | Some e ->
              if !budget <= 0 then begin
                widen_all t;
                raise Widened
              end;
              decr budget;
              evaluate t e;
              drain ()
        in
        drain ())
      comps

  let stabilize t =
    with_state t @@ fun () ->
    let pending () = List.exists (fun e -> e.dirty || e.evals = 0) t.order in
    let widened = ref false in
    let pass = ref 0 in
    (try
       while (not !widened) && pending () do
         if !pass >= t.max_iters then begin
           widen_all t;
           widened := true
         end
         else begin
           incr pass;
           t.passes <- t.passes + 1;
           (* first approximations by recursive descent (covers entries
              demanded outside any evaluation, e.g. by [value]) *)
           let rec fresh () =
             match
               List.find_opt (fun e -> e.evals = 0 && not e.in_progress) t.order
             with
             | Some e ->
                 solve_fresh t e;
                 fresh ()
             | None -> ()
           in
           fresh ();
           (* settle the cyclic remainder bottom-up *)
           sweep t
         end
       done
     with Widened -> widened := true);
    t.stable <- true

  let value t name inst =
    if not (is_def t name) then
      invalid_arg (Printf.sprintf "Fixpoint.value: unknown definition %s" name);
    with_state t @@ fun () ->
    let ty = match inst with Some ty -> ty | None -> instance_ty t name in
    let e = demand t name ty in
    stabilize t;
    e.value

  (* The harness of a per-parameter global test G(name, arg) at a ground
     instance (default: the simplest): check the parameter position,
     settle the definition's value and run [test] on it inside this
     solver's state. *)
  let global_test t ?inst name ~arg test =
    let ty = match inst with Some ty -> ty | None -> instance_ty t name in
    let m = Ty.arity ty in
    if arg < 1 || arg > m then
      invalid_arg (Printf.sprintf "%s global test: %s has arity %d" S.name name m);
    let v = value t name (Some ty) in
    with_state t (fun () -> test v ty)

  let eval_expr t tast =
    with_state t @@ fun () ->
    absorb_tree_depth t tast;
    stabilize t;
    let v = ref (S.transfer t.ctx tast) in
    (* evaluation may have demanded new instances, and recursive descent
       leaves a cycle among them to the next sweep: iterate to a
       consistent result *)
    while not t.stable do
      stabilize t;
      v := S.transfer t.ctx tast
    done;
    !v

  let main_value t = eval_expr t (Infer.main_ground t.prog)
  let iterations t = S.iterations t.ctx
  let passes t = t.passes
  let evaluations t = t.evaluated
  let instances t = List.rev_map (fun e -> (e.name, e.inst)) t.order
  let capped t = S.capped t.ctx

  let stats t =
    let hits, misses = with_state t S.memo_stats in
    {
      stats_passes = t.passes;
      stats_iterations = S.iterations t.ctx;
      stats_entries = List.length t.order;
      stats_evaluations = t.evaluated;
      stats_sccs = t.scc_count;
      stats_largest_scc = t.largest_scc;
      stats_cache_hits = max 0 (hits - t.hits0);
      stats_cache_misses = max 0 (misses - t.misses0);
      stats_cache_invalidated = max 0 (with_state t S.invalidations - t.invalidated0);
      stats_dbound = t.dbound;
      stats_capped = S.capped t.ctx;
    }

  let pp_stats = pp_stats
end

(* The direct-product combinator: two Specs solved in lockstep by one
   engine.  Values, lattice operations and transfer functions are
   pointwise; a product source pairs one source of each component, so a
   read noted by the solver lands in both components' frames and a touch
   stales both components' memos and reaches both components' watches.
   The product's [global] hook splits the solver's paired answer back
   into the component each transfer function expects, which is what lets
   e.g. [Espec] and [Usage.D] run unmodified inside the pair.

   This is the {e direct} product; the reduction (one component's
   verdict sharpening the other's, e.g. usage [Consumed] licensing an
   escape-side reclaim) happens at the report level in
   [Analyses.Product], where both components are in hand.  The functor
   is generative because it owns ambient registries mapping component
   source ids back to product sources. *)

module Make (A : Spec.S) (B : Spec.S) () : sig
  include Spec.S with type value = A.value * B.value
end = struct
  let name = A.name ^ "-x-" ^ B.name

  type value = A.value * B.value

  let bottom ty = (A.bottom ty, B.bottom ty)
  let top ~d ty = (A.top ~d ty, B.top ~d ty)
  let join (a1, b1) (a2, b2) = (A.join a1 a2, B.join b1 b2)
  let equal ~d (a1, b1) (a2, b2) = A.equal ~d a1 a2 && B.equal ~d b1 b2
  let leq ~d (a1, b1) (a2, b2) = A.leq ~d a1 a2 && B.leq ~d b1 b2
  let widen ~d ty (a, b) = (A.widen ~d ty a, B.widen ~d ty b)

  (* ---- per-solver state --------------------------------------------------- *)

  type source = { id : int; a : A.source; b : B.source }

  type state = {
    sa : A.state;
    sb : B.state;
    by_a : (int, source) Hashtbl.t;  (* A source id -> product source *)
    by_b : (int, source) Hashtbl.t;
  }

  let create_state () =
    {
      sa = A.create_state ();
      sb = B.create_state ();
      by_a = Hashtbl.create 32;
      by_b = Hashtbl.create 32;
    }

  let ambient : state Domain.DLS.key = Domain.DLS.new_key create_state
  let installed : state option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

  let current_state () =
    match Domain.DLS.get installed with
    | Some s -> s
    | None -> Domain.DLS.get ambient

  let with_state s f =
    let prev = Domain.DLS.get installed in
    Domain.DLS.set installed (Some s);
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set installed prev)
      (fun () -> A.with_state s.sa (fun () -> B.with_state s.sb f))

  let ensure_d d =
    A.ensure_d d;
    B.ensure_d d

  (* ---- sources ------------------------------------------------------------ *)

  let next_id = Atomic.make 0

  let new_source () =
    let st = current_state () in
    let s =
      { id = Atomic.fetch_and_add next_id 1; a = A.new_source (); b = B.new_source () }
    in
    Hashtbl.replace st.by_a (A.source_id s.a) s;
    Hashtbl.replace st.by_b (B.source_id s.b) s;
    s

  let source_id s = s.id

  let touch s =
    A.touch s.a;
    B.touch s.b

  let note_read s =
    A.note_read s.a;
    B.note_read s.b

  (* Both components open their own frames, watched by one notification:
     whichever side sees a touch first notifies, the other stays quiet. *)
  type reads = { st : state; ra : A.reads; rb : B.reads }

  let with_reads ~notify f =
    let notified = ref false in
    let notify () =
      if not !notified then begin
        notified := true;
        notify ()
      end
    in
    let (x, rb), ra = A.with_reads ~notify (fun () -> B.with_reads ~notify f) in
    (x, { st = current_state (); ra; rb })

  (* The union of both components' read sets (mapped back to product
     sources, deduplicated) is the product's read set.  A read noted
     through [note_read] appears on both sides; a read a component makes
     privately (e.g. probing inside [A.equal]) appears on one. *)
  let sources { st; ra; rb } =
    let areads = A.sources ra and breads = B.sources rb in
    let seen = Hashtbl.create 16 in
    let out = ref [] in
    let add s gen =
      if not (Hashtbl.mem seen s.id) then begin
        Hashtbl.add seen s.id ();
        out := (s, gen) :: !out
      end
    in
    List.iter
      (fun (a, gen) ->
        match Hashtbl.find_opt st.by_a (A.source_id a) with
        | Some s -> add s gen
        | None -> ())
      areads;
    List.iter
      (fun (b, gen) ->
        match Hashtbl.find_opt st.by_b (B.source_id b) with
        | Some s -> add s gen
        | None -> ())
      breads;
    !out

  (* ---- memo (delegated) --------------------------------------------------- *)

  let memo_stats () =
    let ha, ma = A.memo_stats () and hb, mb = B.memo_stats () in
    (ha + hb, ma + mb)

  let invalidations () = A.invalidations () + B.invalidations ()

  (* ---- transfer ----------------------------------------------------------- *)

  type ctx = { ca : A.ctx; cb : B.ctx }

  let make_ctx ~d ~global ~max_iters =
    {
      ca = A.make_ctx ~d ~global:(fun n ty -> fst (global n ty)) ~max_iters;
      cb = B.make_ctx ~d ~global:(fun n ty -> snd (global n ty)) ~max_iters;
    }

  let transfer ctx tast = (A.transfer ctx.ca tast, B.transfer ctx.cb tast)
  let iterations ctx = A.iterations ctx.ca
  let record_iteration ctx =
    A.record_iteration ctx.ca;
    B.record_iteration ctx.cb
  let capped ctx = A.capped ctx.ca || B.capped ctx.cb
  let set_capped ctx =
    A.set_capped ctx.ca;
    B.set_capped ctx.cb
end

(* The direct-product combinator: two Specs solved in lockstep by one
   engine.  Values, lattice operations and transfer functions are
   pointwise, and the state is one state of each component.  The
   product needs no dependency plumbing of its own: the solver tracks
   every read in one {!Deps} frame, whichever component's transfer
   function made it, so a touch stales every memo entry of either
   component that read the value and notifies the evaluation once.  The product's [global] hook splits the
   solver's paired answer back into the component each transfer
   function expects, which is what lets e.g. [Espec] and [Usage.D] run
   unmodified inside the pair.

   This is the {e direct} product; the reduction (one component's
   verdict sharpening the other's, e.g. usage [Consumed] licensing an
   escape-side reclaim) happens at the report level in
   [Analyses.Product], where both components are in hand. *)

module Make (A : Spec.S) (B : Spec.S) : sig
  include Spec.S with type value = A.value * B.value
end = struct
  let name = A.name ^ "-x-" ^ B.name

  type value = A.value * B.value

  let bottom ty = (A.bottom ty, B.bottom ty)
  let top ty = (A.top ty, B.top ty)
  let join (a1, b1) (a2, b2) = (A.join a1 a2, B.join b1 b2)
  let equal (a1, b1) (a2, b2) = A.equal a1 a2 && B.equal b1 b2

  (* ---- per-solver state --------------------------------------------------- *)

  type state = A.state * B.state

  let create_state () = (A.create_state (), B.create_state ())
  let with_state (sa, sb) f = A.with_state sa (fun () -> B.with_state sb f)

  let ensure_d d =
    A.ensure_d d;
    B.ensure_d d

  (* ---- memo (delegated) --------------------------------------------------- *)

  let memo_stats () =
    let ha, ma = A.memo_stats () and hb, mb = B.memo_stats () in
    (ha + hb, ma + mb)

  let invalidations () = A.invalidations () + B.invalidations ()

  (* ---- transfer ----------------------------------------------------------- *)

  type ctx = { ca : A.ctx; cb : B.ctx }

  let make_ctx ~global ~max_iters =
    {
      ca = A.make_ctx ~global:(fun n ty -> fst (global n ty)) ~max_iters;
      cb = B.make_ctx ~global:(fun n ty -> snd (global n ty)) ~max_iters;
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

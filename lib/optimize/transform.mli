(** Driver combining the three storage optimizations.

    Given a program, runs the escape analysis once and applies, in order:

    + {e in-place reuse} ({!Reuse}) — rewrites definitions and call sites;
    + {e stack allocation} ({!Stackalloc}) — wraps main-expression calls
      whose literal arguments' spines provably stay inside the call;
    + {e block allocation} ({!Blockalloc}) — specializes producers whose
      result spine dies with its consumer.

    A call site claimed by the reuse substitution is not also
    stack-annotated: a reused cell becomes part of the callee's result,
    so it must not sit in an arena that dies at the call. *)

type options = {
  monomorphize : bool;
      (** specialize definitions per used instance first ({!Nml.Mono}), so
          every copy is analyzed and transformed at its own instance *)
  reuse : bool;
  alias_reuse : bool;
      (** judge call-site freshness with the flow-sensitive sharing
          analysis ({!Framework.Alias}) joined with the Theorem-2
          recursion; off = pure Theorem-2 baseline (only meaningful when
          [reuse] is on) *)
  stack : bool;
  block : bool;
  pretenure : bool;
      (** retarget escape-doomed cons sites (escaping literal spines, the
          result spine of main) to [Ir.Pretenured] — a generational-heap
          hint, semantically a plain heap allocation; off in {!all}
          because it only pays off under [Runtime.Heap.generational] *)
}

val all : options
(** Everything except [pretenure] on. *)

val none : options

type result = {
  ir : Runtime.Ir.expr;  (** the optimized program *)
  reuse_report : Reuse.report option;
  stack_report : Stackalloc.report option;
  block_report : Blockalloc.report option;
  pretenure_sites : int;  (** cons sites retargeted to [Ir.Pretenured] *)
}

val optimize : ?options:options -> Nml.Infer.program -> result
(** Builds a solver internally.  With [monomorphize] on, the solver runs
    over the typed program {!Nml.Mono.monomorphize} returns
    ([Mono.result.typed]), as it is: no definition is inferred or typed
    again.  The annotation pass still types each call of [main] with a
    literal argument on its own, to judge the literal's placement. *)

val optimize_with : Escape.Fixpoint.t -> options -> Nml.Surface.t -> result
(** Like {!optimize} with a caller-supplied solver; the [monomorphize]
    option is ignored here (the solver must match the program). *)

val pp_report : Format.formatter -> result -> unit

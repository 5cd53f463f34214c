(** The lint rule interface: a stable code, default severity, SARIF
    metadata, and a checker per scope.

    SCC-scoped checkers see only an SCC's members (plus anything
    reachable through the shared solver and program), which is the
    contract that makes their findings cacheable per SCC: the cache key
    digests the members and their transitive callees, so a finding can
    only change when its key does.  Program-scoped checkers run once per
    program and are cached under a whole-source key. *)

type fault = No_fault | Corrupt_invariance | Corrupt_sharing
(** [Corrupt_invariance] makes LINT003 corrupt one instance's result
    before comparing — a seeded lie the self-audit must catch (the
    lint-side analogue of [nmlc vet --inject-fault]).
    [Corrupt_sharing] makes LINT008 see one reuse candidate's sharing
    verdict as spine-shared, so the escape/sharing cross-check must
    fire. *)

type ctx = {
  surface : Nml.Surface.t;
  prog : Nml.Infer.program;
  solver : Escape.Fixpoint.t Lazy.t;
      (** forced on first use; a fully warm cache run never forces it *)
  spinelive : Framework.Spinelive.Solver.t Lazy.t;
      (** the spine-liveness solver backing both LINT004 (at the
          parameter binder) and LINT007 (at call sites passing a fresh
          spine); forced on first use *)
  alias : Framework.Alias.Solver.t Lazy.t;
      (** the sharing solver backing LINT008; forced on first use *)
  fault : fault;
}

type t = {
  code : string;  (** stable identifier, e.g. ["LINT001"] *)
  title : string;  (** short slug, e.g. ["missed-reuse"] *)
  summary : string;  (** one line, surfaced as SARIF rule metadata *)
  severity : Nml.Diagnostic.severity;  (** default severity *)
  check_scc : ctx -> members:string list -> Nml.Diagnostic.t list;
  check_program : ctx -> Nml.Diagnostic.t list;
}

val solver : ctx -> Escape.Fixpoint.t
(** Forces the shared solver. *)

val no_scc : ctx -> members:string list -> Nml.Diagnostic.t list
val no_program : ctx -> Nml.Diagnostic.t list
(** Empty checkers, for rules scoped to only one of the two. *)

(** The shipped lint rules.

    {ul
    {- [LINT001] {e missed-reuse} (warning): the escape and sharing
       analyses license in-place reuse of a parameter's top spine, but
       {!Optimize.Reuse} produced no primed version — every constructor
       site either precedes a later use of the parameter or is not
       nil-guarded.}
    {- [LINT002] {e heap-doomed-result} (note): Theorem 2 proves zero
       unshared top spines for the definition's result, at every call
       site, so no storage optimization can ever target it.}
    {- [LINT003] {e instance-invariance} (error): Theorem-1 self-audit —
       the solver's verdicts at the monomorphic instances demanded by the
       program disagree on [s_i - k_i].  Firing means the solver (or a
       corrupted cache) is unsound.}
    {- [LINT004] {e dead-spine} (warning): a parameter that occurs in
       its body, whose spines escape nowhere ([<0,0>]) and whose
       spine-liveness verdict is [Dead]: no cell of it is ever needed,
       it is at most forwarded.}
    {- [LINT005] {e unused-binding} (warning): a [lambda]/[letrec]/[let]
       binding never used.  Binders starting with [_] are exempt.}
    {- [LINT006] {e unreachable-branch} (warning): a conditional branch
       under a constant [true]/[false] condition.}} *)

val all : Rule.t list
(** In code order. *)

val invariant_rows : (bool * int) list -> bool
(** The Theorem-1 comparison on [(escapes, kept top spines)] rows, one
    per instance: escape verdicts must agree, and whenever something
    escapes the kept counts must agree too (when nothing escapes the
    kept count is the instance's own [s_i], which may legitimately
    vary).  Exposed for direct corruption tests. *)

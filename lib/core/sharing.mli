(** Sharing analysis derived from escape information (section 6,
    Theorem 2).

    For a strict language, escape analysis makes sharing analysis of
    lists easy: if [f] takes [n] parameters with [d_i] spines of which at
    most [esc_i] (bottom) spines escape, and returns a list with [d_f]
    spines, then

    + with [u_i] unshared top spines known for each actual argument, all
      cells in the top
      [d_f - max_i (min (esc_i) (d_i - u_i))] spines of the result are
      unshared;
    + for arbitrary arguments (worst case [u_i = 0]), all cells in the
      top [d_f - max_i esc_i] spines of the result are unshared.

    "Unshared" licenses in-place reuse: a cell that is both non-escaping
    (dead after the call) and unshared (no other live pointer) can be
    recycled by [DCONS] (see {!Optimize.Reuse}). *)

type info = {
  func : string;
  result_spines : int;  (** [d_f] *)
  arg_spines : int list;  (** [d_i], in parameter order *)
  arg_escapes : int list;  (** [esc_i] from the global escape test *)
  unshared_top : int;  (** Theorem 2's guarantee for this query *)
}

val result_unshared : ?inst:Nml.Ty.t -> Fixpoint.t -> string -> info
(** Clause 2: how many top spines of the result of any call of the
    definition are guaranteed unshared. *)

val result_unshared_given :
  ?inst:Nml.Ty.t -> Fixpoint.t -> string -> args_unshared:int list -> info
(** Clause 1: the sharper bound when the number of unshared top spines
    [u_i] of each actual argument is known.
    @raise Invalid_argument if the list length differs from the arity. *)

val call_fresh_depth : Fixpoint.t -> string -> args_unshared:int list -> int
(** Total form of clause 1 for optimizer call sites: [unshared_top] of
    {!result_unshared_given} at the definition's simplest instance, or 0
    — the sound "proves nothing" answer — when the name is unknown to
    the solver, the applied arity disagrees with the instance, or
    inference fails.  This is the Theorem-2 leg that [Optimize.Reuse]
    maxes against the flow-sensitive sharing analysis' judgment
    ([Framework.Alias.Local.call_unshared]); the max is sound because
    each side is an independent lower bound on the certainly-fresh
    spine depth of the call's result. *)

val argument_unshared_after :
  ?inst:Nml.Ty.t -> Fixpoint.t -> string -> arg:int -> args_unshared:int list -> int
(** How many top spines of argument [arg] are unshared {e and} do not
    escape the call — i.e. the paper's reuse budget
    [min u_i (d_i - esc_i)] (section 6, in-place reuse). *)


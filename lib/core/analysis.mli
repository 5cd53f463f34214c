(** The escape tests of section 4: global ([G]) and local ([L]).

    Both tests ask the same question — how many bottom spines of the
    [i]-th argument of [f] can be contained in the result of a call —
    and differ in what they assume about the call:

    - {!global} applies the abstract value of [f] to worst-case arguments
      [⟨<1,s_i>, W⟩] / [⟨<0,0>, W⟩], so its verdict holds for {e every}
      call of [f];
    - {!local} uses the abstract function components of the actual
      argument expressions of one particular call, which is more precise.

    A {!verdict} packages the resulting basic escape value together with
    the spine count [s_i] of the parameter, from which the actionable
    number — how many {e top} spines can never escape, hence can be
    stack-allocated or reused — is derived ({!non_escaping_top_spines}). *)

type verdict = {
  func : string;  (** analyzed definition *)
  arg : int;  (** 1-based parameter position [i] *)
  arity : int;  (** number of arguments [n] the test applied *)
  inst : Nml.Ty.t;  (** ground instance of [f] used *)
  spines : int;  (** [s_i], spine count of the parameter's type *)
  esc : Besc.t;  (** the test's result: [G(f,i)] or [L(f,i,e1..en)] *)
}

val escaping_spines : verdict -> int
(** [k] such that the bottom [k] spines of the argument may escape
    ([0] when nothing escapes). *)

val escapes : verdict -> bool
(** Whether any part of the argument may escape ([esc <> <0,0>]). *)

val non_escaping_top_spines : verdict -> int
(** [s_i - k]: how many top spines of the argument are guaranteed not to
    escape — the quantity that is invariant across polymorphic instances
    (Theorem 1) and that licenses storage optimizations. *)

val global : ?inst:Nml.Ty.t -> ?arity:int -> Fixpoint.t -> string -> arg:int -> verdict
(** [global t f ~arg:i] is the paper's [G(f, i, env_e)] at the simplest
    instance of [f] (or at [inst]).  [arity] defaults to the number of
    arguments [f] can take before returning a primitive value.
    @raise Invalid_argument if [arg] is not in [1..arity]. *)

val global_all : ?inst:Nml.Ty.t -> Fixpoint.t -> string -> verdict list
(** One global verdict per parameter position. *)

val local : Fixpoint.t -> string -> Nml.Ast.expr list -> arg:int -> verdict
(** [local t f [e1;...;en] ~arg:i] is the paper's [L(f, i, e1...en,
    env_e)]: the argument expressions are typed in the program's
    environment (fixing [f]'s instance), the interesting argument keeps
    its actual abstract function component but is marked [<1,s_i>], and
    the others are marked [<0,0>]. *)

val local_call : Fixpoint.t -> Nml.Tast.texpr -> arg:int -> verdict
(** Local test on an already-typed application node [f e1 ... en] (the
    head must be a variable naming a definition). *)

(** {2 Component-resolved verdicts for pair-typed parameters}

    A pair argument has several substructures with their own spine
    chains; a single verdict joins them.  These run the test once per
    projection path (the paper's "once per interesting object" applied
    to components), so e.g. for
    [snds : (int * int list) list -> int list list] the [.fst] component
    is reported non-escaping and [.snd] fully escaping. *)

val component_paths : Nml.Ty.t -> Dvalue.component list list
(** The projection paths to the non-pair leaves of a type: a non-pair
    type has the single path []; [a * (b * c)] has [.fst], [.snd.fst],
    [.snd.snd]. *)

val global_components :
  ?inst:Nml.Ty.t -> Fixpoint.t -> string -> arg:int ->
  (Dvalue.component list * verdict) list
(** One global verdict per component path of the parameter; the
    verdict's [spines] is the component's own spine count. *)

val pp_path : Format.formatter -> Dvalue.component list -> unit
(** [".fst.snd"], or ["(whole)"] for the empty path. *)


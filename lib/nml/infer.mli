(** Hindley-Milner type inference for [nml].

    The paper assumes type inference has been performed before the escape
    analysis runs (section 3.1); this module provides it.  Top-level
    [letrec] definitions are generalized (parametric polymorphism,
    section 5); nested [letrec]s and the [let] sugar are monomorphic.

    Because the escape analysis needs the {e monomorphic instances} of
    polymorphic definitions (the [car^s] annotations depend on the
    instance), a typed {!program} keeps the surface right-hand sides, and
    {!instantiate_def} types one at any ground instance: {!Mono} calls it
    once per instance it specializes, the solver once per other instance
    a polymorphic program demands.  By Theorem 1 only each definition's
    simplest instance has to be analysed, so the program also carries
    that instance, typed once on first use ({!simplest}): the solver, the
    summary-cache key, the reports and the monomorphizer all read it
    there.  The program {!Mono} builds ({!of_ground_defs}) arrives with
    that table full, every copy at its own instance, so nothing on the
    optimizing path types a definition again; only the annotation pass
    still types each call of [main] with a literal argument on its own
    ({!infer_expr}), to judge where the literal may live. *)

exception Error of Loc.t * string

type scheme
(** A type scheme [forall a1...an. t]. *)

val mono : Ty.t -> scheme
(** The monomorphic scheme of a type (no quantified variables). *)

val scheme_ty : scheme -> Ty.t
(** A fresh instantiation of the scheme (new variables every call). *)

val scheme_params : scheme -> int
(** {!Ty.params} of the scheme body: the parameters every instance
    has. *)

val pp_scheme : Format.formatter -> scheme -> unit

type env

val empty_env : env
val bind_scheme : string -> scheme -> env -> env

val infer_expr : ?env:env -> Ast.expr -> Tast.texpr
(** Types a standalone expression (no generalization anywhere).  Unbound
    identifiers, type clashes and infinite types raise {!Error}. *)

val unify : Loc.t -> Ty.t -> Ty.t -> unit
(** Unifies two types in place.  @raise Error on a clash. *)

type defs
(** Right-hand sides by name. *)

type instances = (string, Tast.texpr) Hashtbl.t
(** The simplest instances typed so far, by name: {!simplest} adds to
    it, {!of_ground_defs} fills it. *)

type program = {
  surface : Surface.t;
  schemes : (string * scheme) list;  (** one scheme per definition, in order *)
  main : Tast.texpr;  (** typed main expression *)
  env : env;  (** every definition bound to its scheme, built once *)
  defs : defs;  (** see {!def_rhs} *)
  simplest : instances;  (** see {!simplest} *)
}

val infer_program : Surface.t -> program
(** Types the whole program: all definitions are inferred as one mutually
    recursive group, then generalized; the main expression is typed under
    the resulting schemes. *)

val of_ground_defs : (string * Tast.texpr) list -> Tast.texpr -> program
(** [of_ground_defs defs main] is the program whose definitions are
    already typed, each at one ground instance, as {!Mono} produces it:
    each definition's scheme is that instance (monomorphic), its tree is
    its {!simplest} instance, and the surface program is the erased
    trees.  Nothing is inferred.  Every tree must be fully ground. *)

val def_scheme : program -> string -> scheme
(** @raise Not_found for unknown names. *)

val is_def : program -> string -> bool
(** Is the name a top-level definition?  O(log defs). *)

val def_rhs : program -> string -> Ast.expr
(** Surface right-hand side of a definition, O(log defs).
    @raise Not_found for unknown names. *)

val instantiate_def : program -> string -> Ty.t option -> Tast.texpr
(** [instantiate_def p f (Some ty)] re-types the right-hand side of [f]
    with recursive occurrences of [f] fixed at type [ty] (monomorphic
    recursion), then grounds every remaining type variable to [int].
    [instantiate_def p f None] produces the {e simplest monotyped
    instance} of [f] (section 5): a fresh instance grounded to [int];
    {!simplest} types it once per program.  The resulting tree is fully
    ground: every [car] has a definite spine annotation.

    It costs O(body + log defs): the right-hand side is typed under the
    program's prebuilt [p.env] with only [f] rebound, never an
    environment rebuilt from every scheme. *)

val simplest : program -> string -> Tast.texpr
(** The simplest monotyped instance of a definition
    ([instantiate_def p f None]), typed on the first call and the same
    tree on every later one.  Like the program's type variables, the
    table belongs to one domain.
    @raise Invalid_argument for unknown names. *)

val simplest_instance : program -> string -> Ty.t
(** Ground type of {!simplest}. *)

val main_ground : program -> Tast.texpr
(** The typed main expression with any residual variables grounded to
    [int].  (Types in [p.main] may be partially polymorphic when the
    value's type is unconstrained.) *)

(** Last-use analysis for the in-place reuse transformation.

    The paper's side condition for rewriting [(cons e1 e2)] into
    [(DCONS x e1 e2)] is that {e there is no further use of the parameter
    [x] after the evaluation of the cons} (section 6).  Evaluation order
    in this implementation is left to right: in [e1 e2] the function part
    is evaluated first, in a conditional the condition first and then one
    branch, in a [letrec] the right-hand sides in order and then the
    body.  The arguments of the cons itself are evaluated {e before} the
    allocation, so uses of [x] inside them are harmless.

    A cons site is {e eligible} for a parameter [x] when no free
    occurrence of [x] can be evaluated after it.  Occurrences of [x]
    under an inner [lambda] defeat the analysis (the closure may run at
    any later time), in which case no site is eligible.

    Two eligible sites may both be rewritten only if they cannot both
    execute in one activation — i.e. they sit in different branches of
    some conditional.  {!select} keeps a maximal prefix-greedy set of
    pairwise-exclusive sites. *)

type site = {
  id : int;  (** index of the cons application in traversal (pre-)order *)
  branch : (int * bool) list;
      (** path of (conditional id, then-branch?) choices enclosing the
          site, outermost first *)
  nil_guarded : bool;
      (** the site sits in the else-branch of a test [null param], so the
          parameter is certainly a cons cell there — a precondition for
          [DCONS param] (only meaningful when a [param] was supplied) *)
}

val cons_sites : Nml.Ast.expr -> site list
(** All saturated cons applications [(cons e1 e2)] in the expression, in
    traversal order. *)

val eligible_sites : Nml.Ast.expr -> param:string -> site list
(** The cons sites after which [param] is dead. *)

val node_sites : Nml.Ast.expr -> site list
(** All saturated tree-node applications [(node l x r)], numbered
    independently of cons sites; [nil_guarded] then means "inside the
    else branch of [isleaf param]". *)

val eligible_node_sites : Nml.Ast.expr -> param:string -> site list
(** The node sites after which [param] is dead. *)

val select : site list -> site list
(** Greedy maximal pairwise-exclusive subset, preferring earlier sites. *)

val exclusive : site -> site -> bool
(** Whether two sites are in different branches of a common conditional
    (so at most one of them executes per activation). *)

(** Stack allocation of list spines (section 6, appendix A.3.1).

    For a call [f e1 ... en] in the main expression whose [j]-th argument
    is a list literal, the local escape test tells how many of its top
    spines cannot escape the call; those spines can live in [f]'s
    activation record.  The transformation wraps the call in
    [WithArena (Region, ...)] and redirects the literal's spine conses
    (to the proven depth) into the arena: the machine frees them all,
    without garbage collection work, when the call returns. *)

type report = { annotations : Annotate.stack_annotation list }
(** The calls {!Transform.optimize_with} wrapped in regions; the
    annotations are {!Annotate}'s own records. *)

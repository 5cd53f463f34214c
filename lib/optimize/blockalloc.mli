(** Block allocation and wholesale reclamation (appendix A.3.3).

    In [PS (create_list i)] the list built by [create_list] cannot go in
    [PS]'s activation record — it exists before that record does.  The
    paper's answer is a {e local heap}: [create_list] allocates the spine
    in a block, and because the spine does not escape [PS], the whole
    block returns to the free list when [PS] finishes, with no traversal.

    The transformation finds calls [f ... (g args) ...] in the main
    expression where [g] is a definition and the local escape test proves
    the argument's top spine does not escape [f]; it then adds a
    specialized [g_blk] whose result-position conses allocate into a
    block, and wraps the call in [WithArena (Block, ...)]. *)

type report = { annotations : Annotate.block_annotation list }
(** The producer calls {!Transform.optimize_with} moved into blocks; the
    annotations are {!Annotate}'s own records. *)

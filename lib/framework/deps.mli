(** The dependency tracker every analysis shares: generation-stamped
    sources, read frames and selective invalidation.

    The solver ({!Solver.Make}) gives each fixpoint entry a {!source},
    notes a read of it ({!note_read}) when a transfer function consumes
    the entry's value and touches it ({!touch}) when the value grows.
    Each evaluation runs in a {!watch} frame, whose owner is notified the
    first time something it read moves; the frame's read set ({!sources})
    is the instance-level dependency graph, flattened only on demand.  A
    domain whose application memo outlives one evaluation (the escape
    domain, [Escape.Dvalue]) runs each memoized computation in an
    {!entry} frame ({!run}) and links the entry wherever it is hit
    ({!use}), so a touch stales exactly the memo entries that read the
    source, however deep.  A domain whose memo lives for one evaluation
    only never opens an entry frame.

    An entry records the (source, generation) pairs its computation read
    itself and links to the completed entries it hit or finished, not
    copies of their read sets: a hit costs one link and closing an entry
    copies nothing.  An entry that read nothing, directly or below, can
    never go stale and is not linked at all.  Each of those records also
    leaves a reverse link: a source keeps the frames that read it, an
    entry the frames that linked it.  Staleness is pushed along the
    reverse links by {!touch}, so a memo lookup only tests the entry's
    flag.  The meaning is the pull one: an entry is stale exactly when
    some (source, generation) pair in its transitive read set has been
    touched since.

    The open frames form one stack per domain; frames nest strictly
    (each is closed by the call that opened it), so two solvers in one
    domain cannot interleave theirs.  Source ids and walk stamps are
    process-global atomics, so sources and entries are safe to carry
    across domains between walks. *)

type source
(** A generation-stamped cell of mutable analysis state (the solver
    allocates one per fixpoint entry). *)

val source : unit -> source

val id : source -> int
(** Process-unique identifier, stable for the source's lifetime. *)

val generation : source -> int

val touch : source -> unit
(** Advance the generation and walk the reverse links upward from the
    source: every memo entry that read it, directly or through the
    entries it used, is marked stale — once, and for good — and every
    {!watch} frame reached is notified, at most once in its lifetime.
    The links walked are dropped, so a second touch costs nothing for
    what the first one reached. *)

val note_read : source -> unit
(** Record a read of the source (at its current generation) in the
    innermost open frame; no-op outside any frame. *)

(** {2 Watch frames} *)

type reads
(** What one {!watch} frame recorded: its own reads and the memo entries
    it linked, not yet flattened. *)

val watch : notify:(unit -> unit) -> (unit -> 'a) -> 'a * reads
(** [watch ~notify f] runs [f] in a fresh {e isolated} frame: its reads
    are not propagated to any enclosing frame, they belong to the solver
    entry being evaluated.  [notify] is called once, by the first
    {!touch} of a source in the frame's transitive read set, or at once
    if the frame links a memo entry that went stale while it was being
    computed. *)

val sources : reads -> (source * int) list
(** The transitive read set of a frame in first-read order: one
    (source, generation-at-first-read) pair per source noted during the
    run, directly or by any memo entry the run hit or computed, however
    deep.  Each call walks the links afresh, visiting each entry once. *)

(** {2 Memo entries} *)

type entry
(** The tracking half of one memoized computation. *)

type event = Read of source * int | Used of entry

val entry : unit -> entry
(** A fresh entry: nothing read, not stale, linked nowhere. *)

val run : entry -> ('a -> 'b) -> 'a -> 'b
(** [run e f x] computes [f x] in [e]'s frame.  On return the entry is
    closed and linked into the enclosing frame, as a hit would be.  If
    [f] raises, what it read is recorded in the enclosing frame instead
    (whatever catches the exception read it) and the exception goes on. *)

val use : entry -> unit
(** A memo hit: link the closed entry into the innermost open frame, so
    the frame reads what the entry read. *)

val stale : entry -> bool
(** Whether a source the entry read, directly or below, has moved on. *)

val trace : entry -> event list
(** What a closed entry's computation read itself and the entries it hit
    or finished that read anything, in the order it happened. *)

(** Definition-level call graph of a typed program, plus the generic
    strongly-connected-component machinery the fixpoint solver schedules
    with.

    A top-level definition [f] {e references} a definition [g] when [g]
    occurs free in [f]'s right-hand side.  The condensation of this graph
    into SCCs gives the order in which a demand-driven solver can settle
    definitions: a component is solvable once every component it
    references is stable, and a definition outside any cycle needs
    exactly one evaluation. *)

module Scc : sig
  val compute : n:int -> succs:(int -> int list) -> int list list
  (** Tarjan's algorithm over nodes [0..n-1].  Components are returned
      {e dependencies first}: reading [succs v] as "v depends on", every
      component appears after all components it (transitively) depends
      on, so processing the list in order visits each node only after its
      out-of-component dependencies.  Successors outside [0..n-1] are
      ignored. *)
end

type t

val of_program : Infer.program -> t
(** Reads the reference graph off every definition's surface right-hand
    side ({!Infer.def_rhs}) with {!Ast.free_vars}, typing nothing: a
    typed instance erases to the same tree, so its free variables are
    the same (the [callgraph] group of [test/test_batch.ml] checks this
    against {!Infer.instantiate_def} on a corpus). *)

val defs : t -> string list
(** Definition names, in program order. *)

val refs : t -> string -> string list
(** Top-level definitions referenced by a definition's right-hand side
    (including itself when directly recursive); [[]] for unknown names. *)

val sccs : t -> string list list
(** The condensation, dependencies first (see {!Scc.compute}). *)

val is_recursive : t -> string -> bool
(** Whether the definition takes part in any cycle: directly recursive,
    or a member of a non-singleton component. *)

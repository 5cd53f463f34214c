(** Whole-program monomorphization.

    The analysis of the paper "assumes that monomorphic type inference
    has already been performed" (section 3.1).  This pass performs it on
    a typed program: it produces an equivalent program in which every
    definition is duplicated once per ground instance reachable from the
    main expression, and every call site names its instance's copy.  It
    types each copy once, at its instance, and hands the typed program
    on ({!Infer.of_ground_defs}): every copy is its own simplest
    instance, so the optimizer and its solvers type no definition
    again.

    Specialized copies are named [f], [f_m2], [f_m3], ... in discovery
    order (the first instance keeps the original name).  Definitions not
    reachable from the main expression are kept at their simplest
    instance under their original name, so the program stays analyzable
    as a library.

    ML's [letrec] is monomorphic inside a recursive group, so the
    instance set is finite; a defensive cap guards against pathological
    growth and raises {!Too_many_instances}. *)

exception Too_many_instances

type result = {
  program : Surface.t;  (** the monomorphic program *)
  instances : (string * string * Ty.t) list;
      (** (original name, specialized name, ground instance) per copy *)
  typed : Infer.program;
      (** the monomorphic program, typed: [typed.surface] is [program],
          each copy's scheme and {!Infer.simplest} tree are its ground
          instance *)
}

val monomorphize : ?max_instances:int -> Infer.program -> result
(** Default cap: 1000 instances. *)

val run : ?max_instances:int -> Surface.t -> result
(** Infers then monomorphizes. *)

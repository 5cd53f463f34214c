(** Closure conversion with flat environments and known-call
    optimization.

    Every lambda nest becomes one uncurried function in a global table;
    a closure is the function's id plus a flat array of captured values.
    Letrec-bound nests are {e known}: a grouped application at the
    nest's exact arity compiles to a direct [Kcall] passing the whole
    argument row at once.  Everything else goes through the generic
    one-argument [Kapp], which builds partial applications until the
    callee's arity is reached. *)

type atom = Anf.atom

type cexpr =
  | Katom of atom
  | Kprim of Nml.Ast.prim * atom list
  | Kalloc of Runtime.Ir.alloc * Anf.shape * atom list
  | Kreuse of Anf.reuse * atom list
  | Kclos of int * atom list  (** function id, captures in [free] order *)
  | Kcall of int * atom * atom list
      (** known flat call: function id, the closure (for its
          environment), the full argument row *)
  | Kapp of atom * atom  (** generic curried application *)
  | Kif of atom * kanf * kanf
  | Karena of Runtime.Ir.arena_kind * int * kanf
  | Kblock of kanf

and kanf =
  | Klet of string * cexpr * kanf
  | Kletrec of (string * kanf) list * kanf
  | Kret of cexpr

type fundef = {
  fid : int;
  fname : string;  (** binder name for letrec nests, ["anon"] otherwise *)
  params : string list;  (** uncurried parameter row *)
  free : string list;  (** flat environment layout *)
  body : kanf;
}

type report = {
  functions : int;
  known_call_sites : int;
  generic_app_sites : int;
  closure_sites : int;
  max_env : int;
}

type prog = {
  funs : fundef array;  (** indexed by function id: [funs.(i).fid = i] *)
  entry : kanf;
  report : report;
}

exception Internal of string

val convert : Anf.anf -> prog
(** Requires its input to satisfy {!Anf.verify}; raises {!Internal} on
    malformed input (a backend bug, not a user error). *)

val pp_report : Format.formatter -> report -> unit

(** The escape domain's share of the abstract semantic function [E] of
    section 3.4: the semantic function [C] for constants and primitives,
    and the hooks {!Framework.Interp.Make} asks of a domain.  The walk
    itself — variables through the solver's [global] hook, application,
    lambdas, conditionals and the Kleene iteration of nested [letrec]s —
    is the interpreter shared with every other analysis ({!Espec}
    instantiates it). *)

val prim_value : ty:Nml.Ty.t -> Nml.Ast.prim -> Dvalue.t
(** The semantic function [C] for primitive constants, at the
    occurrence's instantiated type; exposed for direct testing against
    the paper's definitions. *)

val const_value : ty:Nml.Ty.t -> Nml.Ast.const -> Dvalue.t
(** [C] for literal constants; [nil] is the bottom of its element
    domain. *)

type basic = Besc.t

val no_capture : basic
val capture : basic -> Dvalue.t -> basic

val lambda : ty:Nml.Ty.t -> basic -> (Dvalue.t -> Dvalue.t) -> Dvalue.t
(** A lambda's basic value is [<0,0>] joined with the escape of every
    local it captures (globals capture nothing). *)

val condition : (Dvalue.t -> Dvalue.t -> Dvalue.t) option
(** [None]: a conditional joins both branches, which may both be taken
    at compile time, and its condition is never evaluated. *)

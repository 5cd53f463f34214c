(** The front stage every command shares, and the exit-code table of
    the toolchain's own failures.

    The analysis assumes types were inferred before it runs (section
    3.1), so every command that goes past parsing starts here: source
    text in, one typed {!Infer.program} out, parsed and typed exactly
    once.  Later stages take the typed program, never a bare
    {!Surface.t}. *)

val read : string -> string
(** The contents of a program file.  @raise Sys_error *)

val of_string : file:string -> string -> Infer.program
(** Parse, then type; [file] only labels locations.
    @raise Lexer.Error, Parser.Error, Infer.Error *)

val rejects : exn -> bool
(** A LEX001, PARSE001 or TYPE001 rejection by this stage. *)

val failure :
  ?format:Diagnostic.format -> ?more:(exn -> (int * string) option) -> exn -> int * string
(** The exit code of a failure and the text it prints on stderr:
    front-end rejections as one diagnostic in [format], user errors
    ([Failure], [Invalid_argument], [Sys_error]) and runtime errors of
    the program ({!Eval.Runtime_error}) exit [1]; [more] gives the codes
    of later layers; anything else is an internal error, [124]. *)

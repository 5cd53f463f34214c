(** A minimal JSON tree, emitter and parser.

    One hand-rolled implementation shared by every machine-readable
    artifact the toolchain produces — the benchmark trajectory
    ([bench --json] / [--validate]), the solver statistics
    ([nmlc analyze --json]) and the diagnostics renderer
    ([nmlc vet --format json]) — so the project carries exactly one JSON
    emitter and no external dependency. *)

type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of float
  | Bool of bool

val int : int -> t
(** [Num] of an integer. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on other constructors. *)

(** {2 Decoders}  The ones every summary-cache record codec uses; each
    raises [Failure] on a missing field or a constructor mismatch. *)

val get : string -> t -> t
val str : t -> string
val num : t -> int
val arr : t -> t list

val emit : ?indent:int -> Buffer.t -> t -> unit
(** Appends the rendering to a buffer.  Objects print on one line;
    arrays break one element per line at [indent]. *)

val to_string : t -> string
(** The rendering followed by a newline. *)

exception Parse_error of string

val parse : string -> t
(** Strict parser for the subset {!emit} produces (no [null], no unicode
    escapes).  @raise Parse_error on malformed input. *)

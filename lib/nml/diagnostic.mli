(** Structured, source-located diagnostics.

    Every user-facing complaint of the toolchain — parse and type errors
    as well as the annotation verifier's findings — is a value of this
    type: a severity, a stable machine-readable code (["TYPE001"],
    ["VET003"], ...), a source {!Loc.t} span, a message and optional
    secondary notes.  Two renderers are provided: a human one
    (["file:1.2-1.9: error[VET003]: ..."]) and a JSON one for tooling
    ([--format json]). *)

type severity = Error | Warning | Note

type t = {
  severity : severity;
  code : string;  (** stable identifier, e.g. ["VET003"] *)
  loc : Loc.t;
  message : string;
  notes : (Loc.t * string) list;  (** secondary spans, rendered indented *)
}

val make : severity -> ?notes:(Loc.t * string) list -> code:string -> Loc.t -> string -> t
val error : ?notes:(Loc.t * string) list -> code:string -> Loc.t -> string -> t
val warning : ?notes:(Loc.t * string) list -> code:string -> Loc.t -> string -> t

val errorf :
  ?notes:(Loc.t * string) list ->
  code:string ->
  Loc.t ->
  ('a, Format.formatter, unit, t) format4 ->
  'a
(** [errorf ~code loc fmt ...] builds an error with a formatted message. *)

val severity_name : severity -> string
(** ["error"], ["warning"], ["note"]. *)

val severity_of_name : string -> severity option
(** Inverse of {!severity_name}. *)

val compare : t -> t -> int
(** Orders by source position, then code — the rendering order. *)

val pp : Format.formatter -> t -> unit
(** One diagnostic in the human format, notes included. *)

val to_json : t -> Json.t

val of_json : Json.t -> t option
(** Inverse of {!to_json}; [None] on any shape mismatch.  Persisted
    diagnostics (the lint findings cache) round-trip exactly:
    [of_json (to_json d) = Some d]. *)

val to_sarif :
  ?tool_name:string ->
  ?tool_version:string ->
  ?rules:(string * string) list ->
  t list ->
  Json.t
(** The diagnostics as a SARIF 2.1.0 document (one run, one driver).
    [rules] supplies the driver's rule metadata as [(id, description)]
    pairs; without it the distinct codes of the diagnostics are listed
    with no descriptions.  Severities map to the SARIF levels [error],
    [warning] and [note]. *)

type format = Human | Json | Sarif

val render : format -> Format.formatter -> t list -> unit
(** All diagnostics, sorted with {!compare}.  The JSON form is a single
    document [{"schema": "nmlc/diagnostics-v1", "diagnostics": [...]}];
    the SARIF form is {!to_sarif} with default tool metadata. *)

val report : t list -> string -> string
(** The human rendering of the diagnostics, if any, then a summary line:
    what [nmlc vet] and [nmlc lint] print, and what the batch driver and
    the daemon capture for them. *)

val has_errors : t list -> bool

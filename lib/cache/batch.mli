(** Parallel batch analysis over a list of program files.

    Files are distributed over [jobs] domains (spawned with the stdlib
    [Domain.spawn]; [jobs <= 1] runs inline).  The default per-file job
    is exactly what [nmlc analyze] performs — optionally through the
    persistent summary cache — but the pool is analysis-agnostic: pass
    [~analyze] to distribute any job with the same {!result} shape (the
    lint engine rides it via [Lint.Batch]).  Each {!result} carries the
    rendered stdout/stderr text, so reporting is deterministic: results
    come back in input order regardless of completion order. *)

type result = {
  path : string;
  output : string;  (** what the corresponding subcommand prints on stdout *)
  errors : string;  (** ... and on stderr *)
  code : int;
      (** 0 clean, 1 diagnostics/user error, 124 internal,
          130 interrupted before analysis (a [~stop] drain) *)
  defs : int;
  findings : int;  (** lint findings ([0] in analyze mode) *)
  evaluations : int;  (** fixpoint entry evaluations ([0] = fully warm) *)
  scc_hits : int;
  scc_misses : int;
}

val result :
  ?errors:string ->
  ?code:int ->
  ?defs:int ->
  ?findings:int ->
  ?evaluations:int ->
  ?scc_hits:int ->
  ?scc_misses:int ->
  string ->
  string ->
  result
(** [result path output], every count [0] and no errors unless given. *)

exception Injected_crash of string
(** Raised by the [NMLC_TEST_CRASH_FILE] hook {e outside} {!protect},
    so the pool-level guard (not the per-file one) must contain it. *)

val protect : string -> (unit -> result) -> result
(** Runs a per-file job under the driver's exception regime
    ({!Nml.Front.failure}): front-end rejections become a rendered
    diagnostic with code [1], anything unknown becomes code [124] — one bad file never takes down the pool.
    Analysis callbacks passed to {!run} should wrap themselves in it
    (and {!run} additionally guards every callback, so even a job that
    raises through its own protection only costs its own slot). *)

val analyze_file : ?store:Store.t -> string -> result
(** One file, inline (the sequential baseline the differential tests
    compare the pool against). *)

val analyze_source : ?store:Store.t -> path:string -> string -> result
(** The same job on in-memory source text ([path] only labels
    diagnostics) — what [nmlc serve] runs for requests that carry a
    ["source"] instead of a ["path"]. *)

val run :
  ?analyze:(store:Store.t option -> string -> result) ->
  ?store:Store.t ->
  ?stop:(unit -> bool) ->
  jobs:int ->
  string list ->
  result list
(** Results in input order.  [stop] is polled between files; once it
    returns [true] the pool drains — in-flight files finish normally,
    unstarted files come back with code [130] and empty output. *)

val exit_code : result list -> int
(** The batch exit code under the driver's regime: [124] if any file hit
    an internal error, else [130] if the run was interrupted, else [1]
    if any file produced findings or errors, else [0]. *)

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
(** Raised by the [NMLC_TEST_CRASH_FILE] hook, which {!run} calls
    {e outside} {!protect}, so the pool-level guard (not the per-file
    one) must contain it. *)

val protect : string -> (unit -> result) -> result
(** Runs a per-file job under the driver's exception regime
    ({!Nml.Front.failure}): front-end rejections become a rendered
    diagnostic with code [1], anything unknown becomes code [124] — one bad file never takes down the pool.
    Every {!val-job} runs under it (and {!run} additionally guards every
    job, so even one that raises through its own protection only costs
    its own slot). *)

type job = store:Store.t option -> ?source:string -> string -> result
(** A per-file command: [job ~store ?source path] renders the program
    [source], or else the file at [path] ([path] then only labels
    diagnostics and the result). *)

val job : (?store:Store.t -> path:string -> string -> result) -> job
(** [job render] takes the given source or reads the file and runs
    [render ?store ~path src] under {!protect}: the one constructor of
    every per-file command ([nmlc batch], the daemon's methods). *)

val of_program : ?store:Store.t -> path:string -> Nml.Infer.program -> result
(** The escape report of a typed program, rendered as [nmlc analyze]
    prints it: the one escape renderer every caller shares (it is the
    registry's escape entry).  Unprotected; [path] only labels the
    result. *)

val analyze_source : ?store:Store.t -> path:string -> string -> result
(** The escape job on in-memory source text ([path] only labels
    diagnostics). *)

val run :
  analyze:job ->
  ?store:Store.t ->
  ?stop:(unit -> bool) ->
  jobs:int ->
  string list ->
  result list
(** Results in input order.  Before each file the pool runs the
    [NMLC_TEST_SLOW_MS]/[NMLC_TEST_CRASH_FILE] test hooks, outside the
    job's {!protect}.  [stop] is polled between files; once it
    returns [true] the pool drains — in-flight files finish normally,
    unstarted files come back with code [130] and empty output. *)

val exit_code : result list -> int
(** The batch exit code under the driver's regime: [124] if any file hit
    an internal error, else [130] if the run was interrupted, else [1]
    if any file produced findings or errors, else [0]. *)

(** The per-request worker job.

    Dispatches one request to the same per-file {!Cache.Batch.job}
    [nmlc batch] runs ([Analyses.Registry.job], {!Lint.Batch.job}, or
    {!vet}), so a successful response is byte-identical to the batch
    output for the same input.  Toolchain failures of the analyzed
    program are {e successful} RPCs carrying the rendered diagnostics;
    only server-side conditions become SRV errors.  {!Crash} and
    [Out_of_memory] escape on purpose (fault injection) — they exercise
    the pool's supervision path. *)

exception Crash of string

type t = {
  store : Cache.Store.t option;
  fault : Fault.t;
  quarantined : string -> bool;
}

val vet : Cache.Batch.job
(** The [vet] method: exactly what [nmlc vet] prints for the program. *)

val quarantine_key : Protocol.request -> string
(** The content-sensitive quarantine identity of a request's input:
    fixing a crashing file lifts its quarantine without a restart. *)

val handle : t -> Pool.job -> Pool.resp

(** The supervised worker pool.

    [jobs] worker domains pull requests from the bounded queue; a
    supervisor thread reaps any domain whose handler let an exception
    escape, answers the victim's client through [on_crash], and
    respawns the domain with exponential backoff (5 ms doubling to a
    500 ms cap; one served request resets it).  Results travel through
    a one-shot slot per job so a client that times out abandons the
    slot and a late result is discarded, never delivered.  A posted
    result wakes its waiter through the connection's wake-up pipe
    ({!waker}, {!await}); nothing polls. *)

type resp = { body : string; is_error : bool }

type slot

type job = {
  req : Protocol.request;
  key : string;  (** quarantine identity of the input *)
  deadline : float option;
      (** absolute, in {!now}'s monotonic seconds; a wall-clock step
          moves neither the deadline nor the wait in {!await} *)
  cancelled : bool Atomic.t;  (** cooperative cancellation hint *)
  slot : slot;
}

val now : unit -> float
(** Monotonic seconds, the basis of [deadline]. *)

val waker : unit -> Unix.file_descr * Unix.file_descr
(** A connection's wake-up pipe [(read end, write end)], close-on-exec
    and non-blocking.  One pipe serves every job of the connection; the
    connection closes both ends when it ends. *)

val make_job :
  req:Protocol.request ->
  key:string ->
  deadline:float option ->
  waker:Unix.file_descr ->
  job
(** [waker] is the write end of the submitting connection's
    {!waker} pipe. *)

val complete : job -> resp -> bool
(** Posts the response and wakes the waiter with one byte on its pipe,
    written while the slot is still locked; [false] (and no byte) if
    the client already abandoned the job or it was already completed
    (the result is discarded). *)

val abandon : job -> unit
(** The client gave up (deadline): a late {!complete} becomes a no-op
    and [cancelled] is raised for cooperative handlers. *)

val await : job -> Unix.file_descr -> resp option
(** [await job rfd] blocks on [rfd], the read end of the pipe [job]'s
    waker writes to, until the job is completed; [None] once its
    deadline has passed (the caller then {!abandon}s it).  A response
    posted before the call is returned without blocking, and a leftover
    byte from an earlier job on the same pipe is only a spurious
    wakeup. *)

val expired : job -> bool
(** The deadline has passed. *)

type t

val create :
  jobs:int ->
  queue:job Squeue.t ->
  handler:(job -> resp) ->
  on_crash:(job option -> exn -> unit) ->
  t
(** Spawns the worker domains and the supervisor.  [handler] runs on a
    worker domain; [on_crash] runs on the supervisor thread with the
    job the dead worker was holding (if any) — it must answer that
    job's client. *)

val respawns : t -> int
val discarded : t -> int

val drain : ?grace:float -> t -> int
(** Closes the queue, lets workers finish what is in flight, joins
    what finishes within [grace] seconds and abandons the rest (a
    runaway domain cannot be killed — the process exits around it).
    Returns the number of abandoned workers. *)

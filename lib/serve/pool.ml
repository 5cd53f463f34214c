(* The supervised worker pool: [jobs] OCaml domains pulling requests
   from the bounded queue, plus a supervisor thread that reaps crashed
   domains and respawns them with exponential backoff.

   A *crash* is any exception that escapes the handler — the handler
   protects ordinary toolchain failures itself, so what reaches the
   domain's top is either an injected fault ([Handler.Crash],
   [Out_of_memory]) or a genuine bug.  The supervisor answers the
   victim's client through [on_crash] (which also quarantines the
   offending input) and brings a replacement domain up; consecutive
   crashes of one slot double the respawn delay (5 ms, capped at
   500 ms), so a poisoned workload cannot turn the pool into a
   fork-bomb, while one successfully-served request resets the backoff.

   Result handoff is a one-shot slot per job plus a wake-up pipe per
   connection.  [complete] posts the response and, still holding the
   slot's mutex, writes one byte to the connection's pipe; the
   connection thread blocks in [await] on the pipe's read end (under
   its deadline) and re-checks the slot on every wakeup.  Whoever loses
   the race (a worker finishing after the client timed out, or a client
   abandoning a result already posted) simply drops its side — a
   timed-out request returns a structured SRV004 response and the stale
   result is discarded, never delivered, and never wakes anyone. *)

type resp = { body : string; is_error : bool }

type slot = {
  sm : Mutex.t;
  mutable cell : resp option;
  mutable abandoned : bool;
  waker : Unix.file_descr;  (* write end of the connection's wake-up pipe *)
}

type job = {
  req : Protocol.request;
  key : string;  (* quarantine identity of the input *)
  deadline : float option;  (* absolute, [now] basis *)
  cancelled : bool Atomic.t;  (* cooperative cancellation hint *)
  slot : slot;
}

(* Monotonic seconds: a wall-clock step cannot stretch or shorten a
   deadline. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Both ends non-blocking: [complete] must never block while it holds
   the slot mutex (a full pipe already guarantees a wakeup), and
   [await] drains until the pipe is empty. *)
let waker () =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  (r, w)

let make_job ~req ~key ~deadline ~waker =
  {
    req;
    key;
    deadline;
    cancelled = Atomic.make false;
    slot = { sm = Mutex.create (); cell = None; abandoned = false; waker };
  }

let wake_byte = Bytes.make 1 '!'

(* [true] if the response was accepted; [false] if the client already
   abandoned the job (the result is discarded).  The wake-up byte is
   written under the slot mutex: once the waiter has seen the cell (or
   abandoned the job) no write can follow, so it may close the pipe
   without the byte landing in a reused descriptor. *)
let complete job resp =
  let s = job.slot in
  Mutex.lock s.sm;
  let accepted =
    if s.abandoned || s.cell <> None then false
    else begin
      s.cell <- Some resp;
      (try ignore (Unix.single_write s.waker wake_byte 0 1)
       with Unix.Unix_error _ -> ());
      true
    end
  in
  Mutex.unlock s.sm;
  accepted

(* The client gave up (deadline); a late [complete] becomes a no-op. *)
let abandon job =
  let s = job.slot in
  Mutex.lock s.sm;
  s.abandoned <- true;
  Mutex.unlock s.sm;
  Atomic.set job.cancelled true

let expired job =
  match job.deadline with None -> false | Some d -> now () > d

let peek s =
  Mutex.lock s.sm;
  let r = s.cell in
  Mutex.unlock s.sm;
  r

(* Wait for [job]'s response on [rfd], the read end of the pipe its
   [waker] writes to.  The cell is checked before every sleep and after
   every wakeup, so a completion posted before the call, or a leftover
   byte from an earlier job on the same pipe, costs at most one extra
   iteration.  [None] once the deadline has passed. *)
let await job rfd =
  let buf = Bytes.create 64 in
  let rec drain () =
    match Unix.read rfd buf 0 (Bytes.length buf) with
    | n when n = Bytes.length buf -> drain ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  let rec loop () =
    match peek job.slot with
    | Some _ as r -> r
    | None -> (
        let timeout =
          match job.deadline with None -> -1. | Some d -> d -. now ()
        in
        if job.deadline <> None && timeout <= 0. then None
        else
          match Unix.select [ rfd ] [] [] timeout with
          | _ ->
              drain ();
              loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
  in
  loop ()

(* ---- the pool ---------------------------------------------------------------- *)

type worker = {
  mutable domain : unit Domain.t option;
  current : job option Atomic.t;
  dead : exn option Atomic.t;
  finished : bool Atomic.t;
  healthy : bool Atomic.t;  (* served a job since the last respawn *)
  mutable failures : int;  (* supervisor-only: consecutive crashes *)
}

type t = {
  workers : worker array;
  queue : job Squeue.t;
  handler : job -> resp;
  on_crash : job option -> exn -> unit;
  draining : bool Atomic.t;
  respawns : int Atomic.t;
  discarded : int Atomic.t;
  mutable supervisor : Thread.t option;
}

let respawns t = Atomic.get t.respawns
let discarded t = Atomic.get t.discarded

let body t w () =
  let rec loop () =
    match Squeue.pop t.queue with
    | None -> ()
    | Some job ->
        Atomic.set w.current (Some job);
        let resp = t.handler job in
        if not (complete job resp) then Atomic.incr t.discarded;
        Atomic.set w.current None;
        Atomic.set w.healthy true;
        loop ()
  in
  (try loop () with e -> Atomic.set w.dead (Some e));
  Atomic.set w.finished true

let backoff failures = min 0.5 (0.005 *. (2. ** float_of_int (failures - 1)))

let reap t w =
  match Atomic.get w.dead with
  | None -> ()
  | Some e ->
      let job = Atomic.get w.current in
      Atomic.set w.current None;
      (match w.domain with
      | Some d -> ( try Domain.join d with _ -> ())
      | None -> ());
      w.domain <- None;
      t.on_crash job e;
      w.failures <- (if Atomic.exchange w.healthy false then 1 else w.failures + 1);
      Atomic.set w.dead None;
      Atomic.set w.finished false;
      Atomic.incr t.respawns;
      if Atomic.get t.draining then Atomic.set w.finished true
      else begin
        Thread.delay (backoff w.failures);
        w.domain <- Some (Domain.spawn (body t w))
      end

let supervise t () =
  while not (Atomic.get t.draining) do
    Thread.delay 0.01;
    Array.iter (reap t) t.workers
  done;
  (* one last sweep so a crash racing the drain still gets answered *)
  Array.iter (reap t) t.workers

let create ~jobs ~queue ~handler ~on_crash =
  let t =
    {
      workers =
        Array.init (max 1 jobs) (fun _ ->
            {
              domain = None;
              current = Atomic.make None;
              dead = Atomic.make None;
              finished = Atomic.make false;
              healthy = Atomic.make false;
              failures = 0;
            });
      queue;
      handler;
      on_crash;
      draining = Atomic.make false;
      respawns = Atomic.make 0;
      discarded = Atomic.make 0;
      supervisor = None;
    }
  in
  Array.iter (fun w -> w.domain <- Some (Domain.spawn (body t w))) t.workers;
  t.supervisor <- Some (Thread.create (supervise t) ());
  t

(* Close the queue, let workers finish what is in flight, join what
   finishes within [grace] seconds and abandon the rest (a domain stuck
   in a runaway analysis cannot be killed — the process exits around
   it).  Returns the number of abandoned workers. *)
let drain ?(grace = 10.) t =
  Squeue.close t.queue;
  let deadline = Unix.gettimeofday () +. grace in
  let all_finished () =
    Array.for_all
      (fun w -> Atomic.get w.finished || w.domain = None)
      t.workers
  in
  while (not (all_finished ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Atomic.set t.draining true;
  (match t.supervisor with Some th -> Thread.join th | None -> ());
  let stuck = ref 0 in
  Array.iter
    (fun w ->
      if Atomic.get w.finished then (
        match w.domain with
        | Some d ->
            (try Domain.join d with _ -> ());
            w.domain <- None
        | None -> ())
      else incr stuck)
    t.workers;
  !stuck

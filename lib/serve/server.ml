(* The analysis daemon: accepts framed JSON-RPC requests over a Unix
   socket (one thread per connection) or stdio, keeps the summary store
   hot in memory (write-back, flushed periodically and on drain), and
   pushes analysis jobs onto the supervised worker pool.

   The robustness contract, end to end:

   - a malformed or oversized frame costs that connection, never the
     server (the framing self-synchronizes only at frame granularity,
     so the connection is closed after a structured SRV001/SRV003);
   - an unparsable or invalid payload in a well-formed frame costs
     nothing: SRV001/SRV002 goes back and the connection keeps going;
   - a request that outlives its deadline is abandoned — SRV004 to the
     client, cancellation hint to the worker, late result discarded;
   - a full queue sheds the oldest queued request (SRV005 with a
     retry-after hint sized to the backlog);
   - a crashed worker is reaped and respawned by the pool's supervisor,
     its input quarantined by content (SRV006 now, SRV007 on re-send);
   - SIGINT/SIGTERM (or a [shutdown] request) starts the drain:
     in-flight requests finish, new ones get SRV008, dirty summaries
     are flushed through the store's atomic-rename path, the socket is
     unlinked, and the process exits 0.

   Fault injection ([--inject-fault]) threads through here: frame
   corruption and cache corruption are applied at the connection/server
   layer, worker crash / OOM / slow request inside the handler. *)

module J = Nml.Json

type transport = Socket of string | Stdio

type config = {
  transport : transport;
  jobs : int;
  queue_cap : int;
  default_deadline_ms : int;  (* <= 0: no deadline *)
  max_frame : int;
  store : Cache.Store.t option;
  fault : Fault.t;
  handle_signals : bool;
  quiet : bool;
}

let default_config transport =
  {
    transport;
    jobs = 2;
    queue_cap = 64;
    default_deadline_ms = 30_000;
    max_frame = Frame.default_max;
    store = None;
    fault = Fault.None_;
    handle_signals = true;
    quiet = false;
  }

type t = {
  cfg : config;
  queue : Pool.job Squeue.t;
  stop : bool Atomic.t;
  in_flight : int Atomic.t;
  req_count : int Atomic.t;
  served : int Atomic.t;
  failed : int Atomic.t;
  timeouts : int Atomic.t;
  shed : int Atomic.t;
  malformed : int Atomic.t;
  invalid : int Atomic.t;
  crashes : int Atomic.t;
  qtable : (string, unit) Hashtbl.t;
  qlock : Mutex.t;
  mutable pool : Pool.t option;
}

let log t fmt =
  Printf.ksprintf
    (fun s ->
      if not t.cfg.quiet then begin
        output_string stderr s;
        output_char stderr '\n';
        flush stderr
      end)
    fmt

let quarantined t key =
  Mutex.lock t.qlock;
  let r = Hashtbl.mem t.qtable key in
  Mutex.unlock t.qlock;
  r

let quarantine t key =
  Mutex.lock t.qlock;
  if not (Hashtbl.mem t.qtable key) then Hashtbl.replace t.qtable key ();
  let n = Hashtbl.length t.qtable in
  Mutex.unlock t.qlock;
  n

let quarantine_count t =
  Mutex.lock t.qlock;
  let n = Hashtbl.length t.qtable in
  Mutex.unlock t.qlock;
  n

(* Deterministic (no clocks, no pids), so [status] is cram-testable. *)
let status_json t =
  let a = Atomic.get in
  let mem, mem_bytes, dirty =
    match t.cfg.store with
    | None -> (0, 0, 0)
    | Some s ->
        ( Cache.Store.memory_entries s,
          Cache.Store.memory_bytes s,
          Cache.Store.dirty_entries s )
  in
  let pool_stat f = match t.pool with None -> 0 | Some p -> f p in
  J.Obj
    [
      ("schema", J.Str "nmlc/serve-status-v1");
      ("workers", J.int t.cfg.jobs);
      ("served", J.int (a t.served));
      ("errors", J.int (a t.failed));
      ("timeouts", J.int (a t.timeouts));
      ("shed", J.int (a t.shed));
      ("malformed", J.int (a t.malformed));
      ("invalid", J.int (a t.invalid));
      ("crashes", J.int (a t.crashes));
      ("respawns", J.int (pool_stat Pool.respawns));
      ("discarded", J.int (pool_stat Pool.discarded));
      ("quarantined", J.int (quarantine_count t));
      ("queue_depth", J.int (Squeue.length t.queue));
      ("memory_entries", J.int mem);
      ("memory_bytes", J.int mem_bytes);
      ("dirty_entries", J.int dirty);
      (* storage-machine activity aggregated across every evaluation this
         process ever ran (lint rules and vet mutants execute programs) *)
      ( "heap",
        J.Obj
          (List.map (fun (k, v) -> (k, J.int v)) (Runtime.Stats.global_row ())) );
      ("draining", J.Bool (a t.stop));
    ]

let retry_hint t = min 1000 (50 * (1 + Squeue.length t.queue))

let on_crash t job exn =
  Atomic.incr t.crashes;
  match (job : Pool.job option) with
  | None -> ()
  | Some job ->
      ignore (quarantine t job.Pool.key);
      ignore
        (Pool.complete job
           {
             Pool.body =
               Protocol.error ?id:job.Pool.req.Protocol.id
                 ~code:Protocol.srv_crash
                 (Printf.sprintf "worker crashed (%s); input quarantined"
                    (Printexc.to_string exn));
             is_error = true;
           })

(* Enqueue one analysis request and block on the connection's wake-up
   pipe ([rfd] read end, [wfd] write end) until the job completes or
   its deadline passes.  Returns the rendered response. *)
let submit t ~waker:(rfd, wfd) (req : Protocol.request) =
  let n = 1 + Atomic.fetch_and_add t.req_count 1 in
  (match t.cfg.fault, t.cfg.store with
  | Fault.Cache_corrupt, Some store when n mod 5 = 0 ->
      ignore (Cache.Store.corrupt_memory store)
  | _ -> ());
  let deadline =
    let ms =
      match req.Protocol.deadline_ms with
      | Some ms -> ms
      | None -> t.cfg.default_deadline_ms
    in
    if ms <= 0 then None else Some (Pool.now () +. (float_of_int ms /. 1000.))
  in
  let job =
    Pool.make_job ~req ~key:(Handler.quarantine_key req) ~deadline ~waker:wfd
  in
  let shed_resp (old : Pool.job) =
    Atomic.incr t.shed;
    ignore
      (Pool.complete old
         {
           Pool.body =
             Protocol.error ?id:old.Pool.req.Protocol.id
               ~retry_after_ms:(retry_hint t) ~code:Protocol.srv_overload
               "request shed: the queue is full";
           is_error = true;
         })
  in
  match Squeue.push t.queue job with
  | `Closed ->
      { Pool.body =
          Protocol.error ?id:req.Protocol.id ~code:Protocol.srv_draining
            "server is draining and accepts no new work";
        is_error = true }
  | (`Ok | `Shed _) as pushed -> (
      (match pushed with `Shed old -> shed_resp old | `Ok -> ());
      (* any way out of here must leave the job answered or abandoned,
         so no completion can write to the pipe once it is closed *)
      match Pool.await job rfd with
      | Some resp -> resp
      | None ->
          Pool.abandon job;
          Atomic.incr t.timeouts;
          {
            Pool.body =
              Protocol.error ?id:req.Protocol.id ~retry_after_ms:(retry_hint t)
                ~code:Protocol.srv_deadline
                "deadline exceeded; the in-flight analysis is abandoned";
            is_error = true;
          }
      | exception e ->
          Pool.abandon job;
          raise e)

exception Peer_gone

(* One connection: read frames until EOF/stop, answer each.  Its
   wake-up pipe serves every request and is closed on every way out. *)
let connection t ~rfd ~wfd =
  let waker = Pool.waker () in
  let close_waker () =
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ fst waker; snd waker ]
  in
  Fun.protect ~finally:close_waker @@ fun () ->
  let frames = ref 0 in
  let send (resp : Pool.resp) =
    if resp.Pool.is_error then Atomic.incr t.failed else Atomic.incr t.served;
    if not (Frame.write wfd resp.Pool.body) then raise Peer_gone
  in
  let send_err ?id ?retry_after_ms ~code msg =
    send
      { Pool.body = Protocol.error ?id ?retry_after_ms ~code msg;
        is_error = true }
  in
  let corrupt payload =
    (* Malformed_frame fault: flip a byte in every 3rd inbound payload,
       as if the bytes were damaged in transit. *)
    if t.cfg.fault = Fault.Malformed_frame && !frames mod 3 = 0 && payload <> ""
    then begin
      let b = Bytes.of_string payload in
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x04));
      Bytes.to_string b
    end
    else payload
  in
  let rec loop () =
    match Frame.read ~max_len:t.cfg.max_frame rfd with
    | Error Frame.Closed -> ()
    | Error (Frame.Malformed msg) ->
        (* boundary lost: answer, then drop the connection *)
        Atomic.incr t.malformed;
        send_err ~code:Protocol.srv_malformed ("malformed frame: " ^ msg)
    | Error (Frame.Oversized n) ->
        (* the payload was never read: answer, then drop the connection *)
        Atomic.incr t.malformed;
        send_err ~code:Protocol.srv_oversized
          (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n
             t.cfg.max_frame)
    | Ok payload -> (
        incr frames;
        match Protocol.parse (corrupt payload) with
        | Error (id, code, msg) ->
            Atomic.incr
              (if code = Protocol.srv_malformed then t.malformed else t.invalid);
            send_err ?id ~code msg;
            loop ()
        | Ok req -> (
            match req.Protocol.meth with
            | Protocol.Status ->
                send
                  { Pool.body = Protocol.ok ?id:req.Protocol.id (status_json t);
                    is_error = false };
                loop ()
            | Protocol.Shutdown ->
                (* stop before acknowledging, so any request the client
                   sends after the ack is refused with SRV008; in flight
                   meanwhile, so the drain waits for the ack to go out *)
                Atomic.incr t.in_flight;
                Atomic.set t.stop true;
                Fun.protect
                  ~finally:(fun () -> Atomic.decr t.in_flight)
                  (fun () ->
                    send
                      { Pool.body =
                          Protocol.ok ?id:req.Protocol.id
                            (J.Obj [ ("stopping", J.Bool true) ]);
                        is_error = false })
            | Protocol.Analyze | Protocol.Vet | Protocol.Lint ->
                if Atomic.get t.stop then begin
                  send_err ?id:req.Protocol.id ~code:Protocol.srv_draining
                    "server is draining and accepts no new work";
                  loop ()
                end
                else begin
                  Atomic.incr t.in_flight;
                  let resp =
                    Fun.protect
                      ~finally:(fun () -> Atomic.decr t.in_flight)
                      (fun () -> submit t ~waker req)
                  in
                  send resp;
                  loop ()
                end))
  in
  try loop () with Peer_gone -> ()

let flush_store t =
  match t.cfg.store with None -> 0 | Some s -> Cache.Store.flush s

(* The write-back timer both transports poll from their loop: publishes
   the dirty summaries once more than 2 s have passed since the last
   publication. *)
let flush_timer t =
  let last_flush = ref (Unix.gettimeofday ()) in
  fun () ->
    let now = Unix.gettimeofday () in
    if now -. !last_flush > 2. then begin
      last_flush := now;
      ignore (flush_store t)
    end

let drain t =
  log t "serve: draining";
  (* let in-flight requests finish being answered (their connection
     threads hold them), bounded *)
  let deadline = Unix.gettimeofday () +. 10. in
  while
    (Atomic.get t.in_flight > 0 || Squeue.length t.queue > 0)
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.01
  done;
  let stuck = match t.pool with None -> 0 | Some p -> Pool.drain p in
  let flushed = flush_store t in
  (match t.cfg.transport with
  | Socket path -> ( try Sys.remove path with Sys_error _ -> ())
  | Stdio -> ());
  log t
    "serve: drained (%d served, %d error(s), %d timeout(s), %d crash(es), %d \
     summary(ies) flushed%s)"
    (Atomic.get t.served) (Atomic.get t.failed) (Atomic.get t.timeouts)
    (Atomic.get t.crashes) flushed
    (if stuck = 0 then "" else Printf.sprintf ", %d worker(s) abandoned" stuck);
  0

let make cfg =
  let t =
    {
      cfg;
      queue = Squeue.create ~cap:cfg.queue_cap;
      stop = Atomic.make false;
      in_flight = Atomic.make 0;
      req_count = Atomic.make 0;
      served = Atomic.make 0;
      failed = Atomic.make 0;
      timeouts = Atomic.make 0;
      shed = Atomic.make 0;
      malformed = Atomic.make 0;
      invalid = Atomic.make 0;
      crashes = Atomic.make 0;
      qtable = Hashtbl.create 16;
      qlock = Mutex.create ();
      pool = None;
    }
  in
  let handler =
    Handler.handle
      { Handler.store = cfg.store; fault = cfg.fault; quarantined = quarantined t }
  in
  t.pool <-
    Some
      (Pool.create ~jobs:cfg.jobs ~queue:t.queue ~handler
         ~on_crash:(on_crash t));
  t

let serve_socket t path =
  (try Sys.remove path with Sys_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 64;
  log t "serve: listening on %s" path;
  let tick = flush_timer t in
  while not (Atomic.get t.stop) do
    (match Unix.select [ lfd ] [] [] 0.2 with
    | [ _ ], _, _ -> (
        match Unix.accept lfd with
        | cfd, _ ->
            ignore
              (Thread.create
                 (fun () ->
                   Fun.protect
                     ~finally:(fun () -> try Unix.close cfd with Unix.Unix_error _ -> ())
                     (fun () -> connection t ~rfd:cfd ~wfd:cfd))
                 ())
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ())
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    tick ()
  done;
  (try Unix.close lfd with Unix.Unix_error _ -> ())

let serve_stdio t =
  let conn_done = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        connection t ~rfd:Unix.stdin ~wfd:Unix.stdout;
        Atomic.set conn_done true)
      ()
  in
  let tick = flush_timer t in
  while not (Atomic.get t.stop || Atomic.get conn_done) do
    Thread.delay 0.05;
    tick ()
  done;
  Atomic.set t.stop true;
  (* if the peer closed stdin the thread joins immediately; if the stop
     came from a signal while the thread blocks on read, exit around it *)
  if Atomic.get conn_done then Thread.join th

let run cfg =
  (* writes to sockets whose peer vanished must fail with EPIPE, not
     kill the process — chaos clients disconnect mid-frame on purpose *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t = make cfg in
  if cfg.handle_signals then begin
    let stop_on _ = Atomic.set t.stop true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop_on);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_on)
  end;
  (match cfg.transport with
  | Socket path -> serve_socket t path
  | Stdio -> serve_stdio t);
  drain t

(* For in-process tests: start a server on [path] on a background
   thread, returning a function that requests the drain and waits for
   [run] to return. *)
let spawn cfg =
  let t = make cfg in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let th =
    Thread.create
      (fun () ->
        (match cfg.transport with
        | Socket path -> serve_socket t path
        | Stdio -> serve_stdio t);
        ignore (drain t))
      ()
  in
  fun () ->
    Atomic.set t.stop true;
    Thread.join th

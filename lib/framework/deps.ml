(* Sources, read frames and pushed staleness: see deps.mli.

   A memo entry's read set is kept as links, not copies: its [trace]
   holds the reads its computation made itself and the completed entries
   it hit or finished, in the order they happened.  The transitive set
   is the walk over those links; entries never change once closed, so a
   link reads exactly the set a copy would have held.

   Every read and every link to an entry also leaves a reverse link from
   what was read to the frame that read it: a source keeps its
   [readers], an entry its [users].  A touch walks those links upward
   once, marking each entry it reaches stale for good and notifying each
   watch it reaches, and clears the lists it walked. *)

type source = {
  id : int;
  mutable gen : int;
  mutable readers : frame list;  (* frames that read it, newest first *)
  mutable mark : int;  (* stamp of the last flattening that listed it *)
}

and entry = {
  mutable trace : event list;  (* newest first while computing, then chronological *)
  mutable stale : bool;  (* a source read below it has moved on: for good *)
  mutable users : frame list;  (* frames that linked it, newest first *)
  mutable visit : int;  (* stamp of the last flattening that walked it *)
}

and event = Read of source * int | Used of entry

(* A frame is a memo entry's computation, or a watch whose owner is
   notified (once) when what it read moves. *)
and frame = Entry of entry | Watch of watcher

and watcher = {
  mutable events : event list;  (* newest first *)
  notify : unit -> unit;
  mutable notified : bool;
}

(* Source ids are process-global: a solver maps them back to its
   entries, so two sources must never share one. *)
let next_id = Atomic.make 0

let source () =
  { id = Atomic.fetch_and_add next_id 1 + 1; gen = 0; readers = []; mark = 0 }

let id s = s.id
let generation s = s.gen

(* Mark the frames, and everything that linked them, as having read
   something that moved.  An entry is marked once and its [users] are
   walked then and dropped; nothing links to a stale entry again, since
   linking one marks the linking frame at once. *)
let rec fire = function
  | [] -> ()
  | Entry c :: rest when not c.stale ->
      c.stale <- true;
      let users = c.users in
      c.users <- [];
      fire (List.rev_append users rest)
  | Watch w :: rest when not w.notified ->
      w.notified <- true;
      w.notify ();
      fire rest
  | (Entry _ | Watch _) :: rest -> fire rest

let touch s =
  s.gen <- s.gen + 1;
  let readers = s.readers in
  s.readers <- [];
  fire readers

(* The reverse half of recording [ev] in [fr].  Linking what has already
   moved on marks [fr] at once.  Consecutive links from one frame are
   kept once. *)
let link fr = function
  | Read (s, g) -> (
      if s.gen <> g then fire [ fr ]
      else match s.readers with r :: _ when r == fr -> () | rs -> s.readers <- fr :: rs)
  | Used c -> (
      if c.stale then fire [ fr ]
      else match c.users with u :: _ when u == fr -> () | us -> c.users <- fr :: us)

let push fr ev =
  (match fr with Entry c -> c.trace <- ev :: c.trace | Watch w -> w.events <- ev :: w.events);
  link fr ev

(* The open frames of this domain, innermost first. *)
let frames : frame list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let record ev = match !(Domain.DLS.get frames) with [] -> () | fr :: _ -> push fr ev
let note_read s = record (Read (s, s.gen))

(* ---- memo entries --------------------------------------------------------- *)

let entry () = { trace = []; stale = false; users = []; visit = 0 }
let stale e = e.stale
let trace e = e.trace

(* An entry whose trace is empty read nothing that can move, so it can
   never go stale and contributes no source: nothing need link it. *)
let use_in frames e =
  match (frames, e.trace) with fr :: _, _ :: _ -> push fr (Used e) | _ -> ()

let use e = use_in !(Domain.DLS.get frames) e

let run e f x =
  let stack = Domain.DLS.get frames in
  let parent = !stack in
  stack := Entry e :: parent;
  match f x with
  | v ->
      stack := parent;
      e.trace <- List.rev e.trace;
      use_in parent e;
      v
  | exception exn ->
      stack := parent;
      (match parent with p :: _ -> List.iter (push p) (List.rev e.trace) | [] -> ());
      raise exn

(* ---- watch frames --------------------------------------------------------- *)

type reads = event list (* newest first *)

let watch ~notify f =
  let stack = Domain.DLS.get frames in
  let parent = !stack in
  let w = { events = []; notify; notified = false } in
  stack := Watch w :: parent;
  match f () with
  | v ->
      stack := parent;
      (* the reverse links may keep [w] alive: let them not keep the events *)
      let events = w.events in
      w.events <- [];
      (v, events)
  | exception exn ->
      stack := parent;
      raise exn

(* Walks are stamped process-wide, so two flattenings never share one. *)
let next_stamp = Atomic.make 0

(* The walk visits events in the order they happened and each linked
   entry once, listing each source at its first read. *)
let sources events =
  let stamp = Atomic.fetch_and_add next_stamp 1 + 1 in
  let out = ref [] in
  let rec visit = function
    | Read (s, g) ->
        if s.mark <> stamp then begin
          s.mark <- stamp;
          out := (s, g) :: !out
        end
    | Used c ->
        if c.visit <> stamp then begin
          c.visit <- stamp;
          List.iter visit c.trace
        end
  in
  List.iter visit (List.rev events);
  List.rev !out

(* The persistent half of the summary cache, plus the optional
   in-memory tier the analysis server keeps hot.

   Disk layout: [root/ab/abcdef....json] — entries are sharded by the
   first two hex characters of their key so no directory grows
   unboundedly.  Writes go through a temporary file in the same shard
   followed by [Sys.rename]; the staging name embeds the pid, the domain
   id and a process-global counter, so no two writers — in this process
   or another — can ever share a staging file and interleave bytes.
   16 striped in-process mutexes additionally serialize writers from
   different domains of one process.  Entries are content-addressed (the
   key digests everything the payload depends on), so concurrent writers
   of one key write identical bytes and the last rename wins.

   The cache is strictly best-effort: every failure to read, parse or
   decode is a miss, and every failure to write is ignored.  A parse
   failure is retried a few times first — a torn read from a rogue
   writer that updates in place resolves at its next rename — so a
   corrupted or truncated entry can cost a re-solve, never an error.

   The memory tier is a mutex-guarded hash table in front of the disk
   tier.  It holds each record as the bytes [flush] writes: [save]
   serializes once, [flush] and a disk hit move those bytes without
   re-serializing, and [load] parses them (a string is a fraction of the
   size of its parsed tree, and one block the major collector marks
   without walking).  In write-back mode, saves only mark entries dirty
   and [flush] publishes them.  The tier is always rebuildable from
   disk: a memory entry that fails to parse is dropped and re-read from
   disk by [load] itself. *)

type memory = {
  tbl : (string, string) Hashtbl.t;  (* key -> record bytes *)
  dirty : (string, unit) Hashtbl.t;
  mlock : Mutex.t;
  write_back : bool;
}

type t = { root : string; locks : Mutex.t array; memory : memory option }

let stripes = 16

let create ?(memory = false) ?(write_back = false) root =
  let memory =
    if memory || write_back then
      Some
        {
          tbl = Hashtbl.create 64;
          dirty = Hashtbl.create 16;
          mlock = Mutex.create ();
          write_back;
        }
    else None
  in
  { root; locks = Array.init stripes (fun _ -> Mutex.create ()); memory }

let root t = t.root

let shard_of key = if String.length key >= 2 then String.sub key 0 2 else "xx"

let path_of t key = Filename.concat (Filename.concat t.root (shard_of key)) (key ^ ".json")

let stripe_of key = (Hashtbl.hash key) land (stripes - 1)

let with_stripe t key f =
  let m = t.locks.(stripe_of key) in
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let with_memory m f =
  Mutex.lock m.mlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock m.mlock) f

let mkdir_p dir =
  (* no recursion needed beyond root/shard; tolerate races with other
     processes creating the same directories *)
  let ensure d = try Sys.mkdir d 0o755 with Sys_error _ -> () in
  ensure (Filename.dirname dir);
  ensure dir

(* ---- disk tier ------------------------------------------------------------- *)

let parse bytes = try Some (Nml.Json.parse bytes) with _ -> None

(* The record and the bytes it was parsed from. *)
let disk_load t ~key =
  let path = path_of t key in
  let attempt () =
    match In_channel.with_open_bin path In_channel.input_all with
    | contents -> (
        match parse contents with Some j -> `Ok (contents, j) | None -> `Torn)
    | exception _ -> `Missing
  in
  (* A readable-but-unparsable file may be a torn read of an in-place
     (non-atomic) writer; an immediate re-read sees the complete entry
     once its rename lands.  A missing file is a genuine miss. *)
  let rec go retries =
    match attempt () with
    | `Ok hit -> Some hit
    | `Missing -> None
    | `Torn -> if retries <= 0 then None else go (retries - 1)
  in
  go 3

let tmp_counter = Atomic.make 0

let disk_save t ~key bytes =
  with_stripe t key @@ fun () ->
  try
    let final = path_of t key in
    mkdir_p (Filename.dirname final);
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d.%d" final (Unix.getpid ())
        (Domain.self () :> int)
        (Atomic.fetch_and_add tmp_counter 1)
    in
    Out_channel.with_open_bin tmp (fun oc ->
        Out_channel.output_string oc bytes);
    Sys.rename tmp final
  with _ -> ()

(* ---- the two-tier interface ------------------------------------------------- *)

let forget m key =
  with_memory m (fun () ->
      Hashtbl.remove m.tbl key;
      Hashtbl.remove m.dirty key)

let load t ~key =
  match t.memory with
  | None -> Option.map snd (disk_load t ~key)
  | Some m -> (
      let from_disk () =
        match disk_load t ~key with
        | Some (bytes, j) ->
            with_memory m (fun () -> Hashtbl.replace m.tbl key bytes);
            Some j
        | None -> None
      in
      match with_memory m (fun () -> Hashtbl.find_opt m.tbl key) with
      | None -> from_disk ()
      | Some bytes -> (
          match parse bytes with
          | Some j -> Some j
          | None ->
              (* a corrupted memory copy: heal from disk *)
              forget m key;
              from_disk ()))

let save t ~key json =
  let bytes = Nml.Json.to_string json in
  match t.memory with
  | None -> disk_save t ~key bytes
  | Some m ->
      let defer =
        with_memory m (fun () ->
            Hashtbl.replace m.tbl key bytes;
            if m.write_back then Hashtbl.replace m.dirty key ();
            m.write_back)
      in
      if not defer then disk_save t ~key bytes

let flush t =
  match t.memory with
  | None -> 0
  | Some m ->
      (* snapshot and clear under the lock, write outside it; a save
         racing the flush just re-marks its key dirty for the next
         flush *)
      let pending =
        with_memory m (fun () ->
            let ks = Hashtbl.fold (fun k () acc -> k :: acc) m.dirty [] in
            Hashtbl.reset m.dirty;
            List.filter_map
              (fun k ->
                Option.map (fun v -> (k, v)) (Hashtbl.find_opt m.tbl k))
              ks)
      in
      List.iter (fun (key, bytes) -> disk_save t ~key bytes) pending;
      List.length pending

(* Each record keeps the first half of its bytes: a torn copy, which no
   longer parses. *)
let corrupt_memory t =
  match t.memory with
  | None -> 0
  | Some m ->
      with_memory m (fun () ->
          let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) m.tbl [] in
          List.iter
            (fun (k, v) -> Hashtbl.replace m.tbl k (String.sub v 0 (String.length v / 2)))
            entries;
          Hashtbl.reset m.dirty;
          List.length entries)

let memory_entries t =
  match t.memory with
  | None -> 0
  | Some m -> with_memory m (fun () -> Hashtbl.length m.tbl)

let memory_bytes t =
  match t.memory with
  | None -> 0
  | Some m ->
      with_memory m (fun () ->
          Hashtbl.fold (fun _ bytes acc -> acc + String.length bytes) m.tbl 0)

let dirty_entries t =
  match t.memory with
  | None -> 0
  | Some m -> with_memory m (fun () -> Hashtbl.length m.dirty)

let cleanup_tmp t =
  let removed = ref 0 in
  let contains_tmp f =
    let rec at i =
      i + 5 <= String.length f
      && (String.sub f i 5 = ".tmp." || at (i + 1))
    in
    at 0
  in
  (try
     Array.iter
       (fun shard ->
         let dir = Filename.concat t.root shard in
         if Sys.is_directory dir then
           Array.iter
             (fun f ->
               if contains_tmp f then begin
                 (try Sys.remove (Filename.concat dir f) with Sys_error _ -> ());
                 incr removed
               end)
             (Sys.readdir dir))
       (Sys.readdir t.root)
   with Sys_error _ -> ());
  !removed

(** Sharded, best-effort JSON store for the summary cache, with an
    optional in-memory tier.

    On disk, entries live at [root/<k[0..1]>/<key>.json]; writes are
    staged in a uniquely-named temporary file (pid, domain and a global
    counter, so concurrent writers — including other {e processes} — can
    never interleave bytes in one staging file) and published with an
    atomic rename.  Reading anything that is missing, truncated or
    unparsable is a miss ([None]); a parse failure is retried a few
    times before giving up, so a torn read from a misbehaving writer
    costs at worst a re-solve, never an error.  Writing never raises —
    a failed write just forfeits the entry.

    With [~memory:true] the store additionally keeps every entry in a
    mutex-guarded hash table in front of the disk tier, as the bytes
    {!flush} writes (serialized once by {!save}; a disk hit keeps the
    bytes it read): loads parse from memory when possible and disk hits
    are promoted.  With [~write_back:true] saves only mark the entry
    dirty in memory;
    {!flush} publishes all dirty entries through the atomic-rename path
    (the server calls it periodically and on drain).  The memory tier is
    strictly a cache of the disk tier plus unflushed writes: {!load}
    heals a corrupted entry from [.nmlc-cache/]. *)

type t

val create : ?memory:bool -> ?write_back:bool -> string -> t
(** Wraps a cache root directory (created lazily on first save).
    [memory] (default [false]) enables the in-memory tier;
    [write_back] (default [false], implies [memory]) defers disk writes
    to {!flush}. *)

val root : t -> string

val load : t -> key:string -> Nml.Json.t option
(** Memory tier first, then disk (with the torn-read retry loop); a
    disk hit populates the memory tier, and a memory entry that does not
    parse heals from disk. *)

val save : t -> key:string -> Nml.Json.t -> unit
(** Serializes the record once; the memory tier and the disk share
    those bytes. *)

val flush : t -> int
(** Publishes every dirty (write-back) entry to disk; returns how many
    were written.  [0] when there is no memory tier or nothing dirty. *)

val corrupt_memory : t -> int
(** Fault-injection hook ([nmlc serve --inject-fault cache-corrupt]):
    cuts every memory-tier record to the first half of its bytes and
    forgets dirty marks, as a crashed or misbehaving resident process
    would.  Returns how many entries were corrupted. *)

val memory_entries : t -> int

val memory_bytes : t -> int
(** The summed length of the memory tier's records. *)

val dirty_entries : t -> int

val cleanup_tmp : t -> int
(** Removes leftover staging files ([*.tmp.*]) from every shard — the
    debris a killed writer can leave behind.  Returns how many were
    removed. *)

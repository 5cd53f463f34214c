(* The pull definition of memo staleness: ground truth for the flags
   [Framework.Deps.touch] pushes along reverse links.  A memo entry is
   stale exactly when some (source, generation) pair read anywhere in
   its transitive trace has been touched since: a [Read (s, g)] with
   [s]'s generation moved past [g], or a [Used] link to an entry that is
   itself stale.  This is the walk the application engine used to make
   on every memo hit; it now only checks the tracker.

   [judge ()] returns a judge that remembers each verdict, so one walk
   visits each entry once however many paths lead to it, and [verdicts]
   lists every entry the judge has reached with its verdict. *)

module Deps = Framework.Deps

module Entries = Hashtbl.Make (struct
  type t = Deps.entry

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type judge = { seen : bool Entries.t }

let judge () = { seen = Entries.create 64 }

let rec stale j e =
  match Entries.find_opt j.seen e with
  | Some b -> b
  | None ->
      let b = List.exists (event j) (Deps.trace e) in
      Entries.replace j.seen e b;
      b

and event j = function Deps.Read (s, g) -> Deps.generation s <> g | Deps.Used c -> stale j c

let verdicts j = Entries.fold (fun e b acc -> (e, b) :: acc) j.seen []

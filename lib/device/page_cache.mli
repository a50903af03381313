(** LRU page cache in front of a device.

    Models the kernel page cache backing memory-mapped I/O: the DR2 portion
    of DRAM in the paper's configurations (Tables 3 and 4). Hits cost DRAM
    time; misses fault the page in from the device; evicting a dirty page
    writes it back. Runs of consecutive missing pages are charged as one
    sequential device read, modelling OS readahead.

    Representation: an int-keyed page table (non-allocating hash) of
    nodes on a circular LRU list through a sentinel. A hit allocates
    nothing: no [option] links, no [Some] cells, no per-access closure or
    refs; the current miss run lives in the cache itself and is reset at
    the start of every {!access}. Only a miss allocates (its node). *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;
}

type t

val create :
  ?page_size:int -> capacity_bytes:int -> Th_sim.Clock.t -> Device.t -> t
(** [create ~capacity_bytes clock device] caches [device] pages, charging
    hit costs to [clock]. [page_size] defaults to the device's page size;
    pass {!Th_sim.Size.mib}[ 2] to model huge-page mappings (HugeMap [31]). *)

val page_size : t -> int

val device : t -> Device.t

val capacity_pages : t -> int

val access :
  ?checked:bool ->
  t -> cat:Th_sim.Clock.category -> write:bool -> offset:int -> len:int -> unit
(** [access t ~cat ~write ~offset ~len] touches the byte range, faulting
    missing pages and charging the clock. A whole-page-aligned write skips
    the fetch (write-allocate without read). With [checked] (default
    false), a miss whose device read exhausts its fault retries raises
    {!Io_retry.Io_error}; callers recover by recomputing the lost data.
    The pages of the failed run stay resident, and the next access starts
    a fresh miss run. Unchecked accesses never fail (the kernel fault path
    waits instead).

    Charges happen page by page in address order: each hit pays its DRAM
    residual after the pending miss run is charged; a whole-page write
    miss ends the pending run before its page is inserted; eviction
    writebacks happen at insertion. *)

val invalidate_range : t -> offset:int -> len:int -> unit
(** Drop pages without writeback; used when the backing region is freed
    (dead H2 regions need no flush). *)

val flush : t -> cat:Th_sim.Clock.category -> unit
(** Write back all dirty pages. *)

val resident_pages : t -> int

val stats : t -> stats

val reset_stats : t -> unit

val hit_ratio : stats -> float

//! Property tests on the checkpoint image codec: arbitrary images
//! round-trip exactly, corruption is always detected, and a body that
//! carries a valid checksum but malformed structure is an error, never a
//! panic or an unbounded allocation. The one-pass sealed codec is pinned
//! against its two-pass definition (checksum fold + `ChunkId::of`), both
//! in the codec and through every store read path.

use cruz_repro::cruz::chunk::{split_ranges, ChunkId};
use cruz_repro::cruz::store::{CheckpointStore, PreparedPut, ReadError, StoreConfig};
use cruz_repro::cruz::ReplicatedStore;
use cruz_repro::simnet::addr::{IpAddr, MacAddr, SockAddr};
use cruz_repro::simnet::tcp::{SeqNum, TcpSnapshot, TcpState};
use cruz_repro::simnet::SockSnapshot;
use cruz_repro::simos::fs::{NetFs, SPARE_MIN_CAPACITY};
use cruz_repro::simos::mem::{PageBuf, PAGE_SIZE};
use cruz_repro::zap::image::{
    AreaImage, DescImage, GroupImage, ImageError, ImageReader, ImageWriter, MacMode, PipeImage,
    PodImage, ProcImage, RunStateImage, Sealed, SemImage, ShmImage, MAGIC, VERSION,
};
use proptest::prelude::*;

fn arb_sockaddr() -> impl Strategy<Value = SockAddr> {
    (any::<u32>(), any::<u16>()).prop_map(|(ip, port)| SockAddr::new(IpAddr::from_bits(ip), port))
}

/// Every TCP state an image can carry.
const TCP_STATES: [TcpState; 10] = [
    TcpState::SynSent,
    TcpState::SynRcvd,
    TcpState::Established,
    TcpState::FinWait1,
    TcpState::FinWait2,
    TcpState::CloseWait,
    TcpState::Closing,
    TcpState::LastAck,
    TcpState::TimeWait,
    TcpState::Closed,
];

fn arb_conn() -> impl Strategy<Value = TcpSnapshot> {
    (
        (arb_sockaddr(), arb_sockaddr(), 0..TCP_STATES.len()),
        (any::<u32>(), any::<u32>(), any::<u32>()),
        (any::<bool>(), any::<bool>()),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..4),
        proptest::collection::vec(any::<u8>(), 0..64),
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(
            |(
                (local, remote, state),
                (snd_una, rcv_nxt, peer_window),
                (nodelay, cork),
                inflight,
                unsent,
                recv_stream,
            )| TcpSnapshot {
                local,
                remote,
                state: TCP_STATES[state],
                snd_una: SeqNum::new(snd_una),
                rcv_nxt: SeqNum::new(rcv_nxt),
                peer_window,
                nodelay,
                cork,
                inflight,
                unsent,
                recv_stream,
            },
        )
}

fn arb_sock() -> impl Strategy<Value = SockSnapshot> {
    prop_oneof![
        (
            arb_sockaddr(),
            1u32..16,
            proptest::collection::vec(arb_conn(), 0..3)
        )
            .prop_map(|(local, backlog, pending)| SockSnapshot::Listen {
                local,
                backlog,
                pending
            }),
        arb_conn().prop_map(SockSnapshot::Conn),
        (
            proptest::option::of(arb_sockaddr()),
            proptest::collection::vec(
                (
                    arb_sockaddr(),
                    proptest::collection::vec(any::<u8>(), 0..32)
                ),
                0..3
            )
        )
            .prop_map(|(bound, queue)| SockSnapshot::Udp { bound, queue }),
        proptest::option::of(arb_sockaddr()).prop_map(|bound| SockSnapshot::Fresh { bound }),
    ]
}

fn arb_desc() -> impl Strategy<Value = DescImage> {
    prop_oneof![
        Just(DescImage::Console),
        ("[a-z/]{1,12}", any::<u64>()).prop_map(|(path, offset)| DescImage::File { path, offset }),
        (0u32..4, any::<bool>())
            .prop_map(|(index, write_end)| DescImage::Pipe { index, write_end }),
        (0u32..4).prop_map(|index| DescImage::Socket { index }),
    ]
}

/// A full page starting with `prefix`, zero after it: capture only ever
/// emits whole pages, and the decoder refuses anything else.
fn page_with(prefix: &[u8]) -> PageBuf {
    let mut page = [0; PAGE_SIZE as usize];
    page[..prefix.len()].copy_from_slice(prefix);
    PageBuf::new(page)
}

fn arb_group() -> impl Strategy<Value = GroupImage> {
    (
        proptest::collection::vec(
            (
                0u64..1u64 << 20,
                1u64..16,
                "[a-z]{1,8}",
                proptest::option::of(0u32..2),
            )
                .prop_map(|(page, pages, tag, shm_index)| AreaImage {
                    start: page * 4096,
                    len: pages * 4096,
                    tag,
                    shm_index,
                }),
            0..4,
        ),
        proptest::collection::vec(
            (
                0u64..1u64 << 20,
                proptest::collection::vec(any::<u8>(), 1..64),
            )
                .prop_map(|(page, prefix)| (page * PAGE_SIZE, page_with(&prefix))),
            0..4,
        ),
        proptest::collection::vec((0u32..16, arb_desc()), 0..5),
    )
        .prop_map(|(areas, pages, fds)| GroupImage { areas, pages, fds })
}

fn arb_proc() -> impl Strategy<Value = ProcImage> {
    (
        1u32..100,
        0u32..100,
        0u32..4,
        proptest::array::uniform16(any::<u64>()),
        any::<u64>(),
        any::<bool>(),
        proptest::option::of((any::<u64>(), proptest::array::uniform5(any::<u64>()))),
        prop_oneof![
            Just(RunStateImage::Ready),
            any::<u64>().prop_map(RunStateImage::SleepUntil),
            any::<u64>().prop_map(RunStateImage::Zombie),
        ],
        proptest::collection::vec("[ -~]{0,20}", 0..3),
    )
        .prop_map(
            |(vpid, parent_vpid, group, regs, pc, halted, pending, run_state, console)| ProcImage {
                vpid,
                parent_vpid,
                group,
                regs,
                pc,
                halted,
                pending,
                run_state,
                console,
            },
        )
}

fn arb_image() -> impl Strategy<Value = PodImage> {
    (
        "[a-z0-9:]{1,16}",
        any::<u32>(),
        prop_oneof![
            proptest::array::uniform6(any::<u8>())
                .prop_map(|m| MacMode::Dedicated(MacAddr::new(m))),
            proptest::array::uniform6(any::<u8>()).prop_map(|m| MacMode::SharedPhysical {
                fake_mac: MacAddr::new(m)
            }),
        ],
        1u32..1000,
        proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64))
                .prop_map(|(key, data)| ShmImage { key, data }),
            0..3,
        ),
        proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<i64>(), 1..4))
                .prop_map(|(key, values)| SemImage { key, values }),
            0..3,
        ),
        proptest::collection::vec(
            (
                proptest::collection::vec(any::<u8>(), 0..64),
                0u32..4,
                0u32..4,
            )
                .prop_map(|(data, readers, writers)| PipeImage {
                    data,
                    readers,
                    writers,
                }),
            0..3,
        ),
        proptest::collection::vec(arb_sock(), 0..4),
        proptest::collection::vec(arb_group(), 0..3),
        proptest::collection::vec(arb_proc(), 0..4),
    )
        .prop_map(
            |(name, ip, mac_mode, next_vpid, shm, sems, pipes, sockets, groups, procs)| PodImage {
                name,
                ip: IpAddr::from_bits(ip),
                mac_mode,
                next_vpid,
                shm,
                sems,
                pipes,
                sockets,
                groups,
                procs,
            },
        )
}

/// Seals `body` with a valid trailing checksum, as the encoder would.
fn seal(body: &[u8]) -> Vec<u8> {
    let mut w = ImageWriter::new();
    for &b in body {
        w.u8(b);
    }
    w.finish()
}

/// One structural mutation of an image body.
#[derive(Debug, Clone)]
enum Mutation {
    /// Flip one bit.
    Flip { at: f64, bit: u8 },
    /// Cut the body short.
    Truncate { at: f64 },
    /// Replace `cut` bytes at a position with `with` (length fields full
    /// of `0xff` are the interesting case, so it is weighted in).
    Splice { at: f64, cut: usize, with: Vec<u8> },
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0.0f64..1.0, 0u8..8).prop_map(|(at, bit)| Mutation::Flip { at, bit }),
        (0.0f64..1.0).prop_map(|at| Mutation::Truncate { at }),
        (
            0.0f64..1.0,
            0usize..16,
            proptest::collection::vec(prop_oneof![any::<u8>(), Just(0xff)], 0..16)
        )
            .prop_map(|(at, cut, with)| Mutation::Splice { at, cut, with }),
    ]
}

fn mutate(body: &mut Vec<u8>, m: &Mutation) {
    let pos = |at: f64| ((body.len() as f64) * at) as usize;
    match m {
        Mutation::Flip { at, bit } => {
            let p = pos(*at).min(body.len() - 1);
            body[p] ^= 1 << bit;
        }
        Mutation::Truncate { at } => body.truncate(pos(*at)),
        Mutation::Splice { at, cut, with } => {
            let p = pos(*at);
            let end = (p + cut).min(body.len());
            body.splice(p..end, with.iter().copied());
        }
    }
}

/// The decoder contract: `bytes` is rejected, or it re-encodes to exactly
/// itself.
fn canonical(bytes: &[u8]) -> bool {
    PodImage::decode(bytes)
        .ok()
        .is_none_or(|img| img.encode() == bytes)
}

/// The start of an image body: magic, version, the (always zero) delta
/// flag.
fn header() -> ImageWriter {
    let mut w = ImageWriter::new();
    w.u32(MAGIC);
    w.u16(VERSION);
    w.u8(0);
    w
}

/// The one-pass reader check must accept and reject exactly as the two
/// passes it replaces: `ChunkId::of` for the digest, `ImageReader::verify`
/// (and `PodImage::decode`) for the checksum verdict and its error.
fn assert_one_pass_matches_two(bytes: &[u8]) -> Result<(), TestCaseError> {
    let (digest, reader) = ImageReader::open(bytes);
    prop_assert_eq!(ChunkId::from(digest), ChunkId::of(bytes));
    prop_assert_eq!(reader.err(), ImageReader::verify(bytes).err());
    let sealed = Sealed::open(bytes.to_vec());
    prop_assert_eq!(ChunkId::from(sealed.digest()), ChunkId::of(bytes));
    prop_assert_eq!(sealed.reader().err(), ImageReader::verify(bytes).err());
    prop_assert_eq!(sealed.decode(), PodImage::decode(bytes));
    Ok(())
}

/// How a store test damages the image it reads back.
#[derive(Debug, Clone)]
enum Damage {
    /// Leave it intact.
    None,
    /// Flip a byte of the stored file after the put: the digest sidecar no
    /// longer matches.
    Stored { at: f64 },
    /// Flip a byte before the put, so the sidecar pins the damaged bytes
    /// and only the image's own checksum can catch it.
    Written { at: f64 },
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::None),
        (0.0f64..1.0).prop_map(|at| Damage::Stored { at }),
        (0.0f64..1.0).prop_map(|at| Damage::Written { at }),
    ]
}

fn flip_at(bytes: &mut [u8], at: f64) {
    let p = ((bytes.len() - 1) as f64 * at) as usize;
    bytes[p] ^= 0x20;
}

fn flip_file(fs: &NetFs, path: &str, at: f64) {
    let mut bytes = fs.read_file(path).expect("stored file");
    flip_at(&mut bytes, at);
    fs.write_file(path, bytes);
}

/// The restore-side read agrees with decoding what `get_image` serves.
fn assert_load_matches_get(
    load: Result<Sealed, ReadError>,
    got: Option<Vec<u8>>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        load.as_ref().ok().map(Sealed::decode),
        got.as_deref().map(PodImage::decode)
    );
    prop_assert_eq!(load.ok().map(Sealed::into_bytes), got);
    Ok(())
}

/// Every `(path, bytes)` under the filesystem root, in path order.
fn tree(fs: &NetFs) -> Vec<(String, Vec<u8>)> {
    fs.list("/")
        .into_iter()
        .map(|p| {
            let b = fs.read_file(&p).unwrap_or_default();
            (p, b)
        })
        .collect()
}

#[test]
fn store_reads_tell_an_absent_image_from_a_corrupt_one() {
    let fs = NetFs::new();
    let store = CheckpointStore::new(fs.clone(), "j");
    assert_eq!(store.read_sealed("p", 1).err(), Some(ReadError::Absent));
    store
        .put_prepared("p", 1, PreparedPut::Plain(vec![1, 2, 3]))
        .unwrap();
    fs.remove(&store.digest_path("p", 1));
    assert_eq!(store.read_sealed("p", 1).err(), Some(ReadError::Corrupt));
    let rs = ReplicatedStore::new(NetFs::new(), "j", 3);
    assert_eq!(rs.read_sealed("p", 1).err(), Some(ReadError::Absent));
}

#[test]
fn malformed_bodies_with_valid_checksums_are_errors() {
    // A name length of u64::MAX used to overflow the reader's bounds check.
    let mut w = header();
    w.u64(u64::MAX);
    assert_eq!(PodImage::decode(&w.finish()), Err(ImageError::Truncated));

    // A shared-memory count of u32::MAX used to reserve 128 GiB up front.
    let mut w = header();
    w.str("p");
    w.u32(0);
    w.u8(0);
    w.bytes(&[0; 6]);
    w.u32(1);
    w.u32(u32::MAX);
    assert_eq!(PodImage::decode(&w.finish()), Err(ImageError::Truncated));

    // A stored delta image (nonzero flag) is refused.
    let img = PodImage {
        name: "p".into(),
        ip: IpAddr::from_bits(0),
        mac_mode: MacMode::Dedicated(MacAddr::new([0; 6])),
        next_vpid: 1,
        shm: vec![],
        sems: vec![],
        pipes: vec![],
        sockets: vec![],
        groups: vec![],
        procs: vec![],
    };
    let bytes = img.encode();
    assert_eq!(bytes[6], 0, "the flag byte follows magic and version");
    let mut body = bytes[..bytes.len() - 8].to_vec();
    body[6] = 1;
    assert_eq!(PodImage::decode(&seal(&body)), Err(ImageError::BadTag(1)));

    // Bytes after the last process are refused, not ignored.
    let mut extended = bytes[..bytes.len() - 8].to_vec();
    extended.push(0);
    assert_eq!(
        PodImage::decode(&seal(&extended)),
        Err(ImageError::Trailing(1))
    );

    // A flag byte other than 0 or 1, and a TCP state no connection has,
    // are refused at decode time. Each field's offset is where two
    // images differing only in it first differ.
    let conn = TcpSnapshot {
        local: SockAddr::new(IpAddr::from_bits(1), 2),
        remote: SockAddr::new(IpAddr::from_bits(3), 4),
        state: TcpState::Established,
        snd_una: SeqNum::new(5),
        rcv_nxt: SeqNum::new(6),
        peer_window: 7,
        nodelay: false,
        cork: false,
        inflight: vec![],
        unsent: vec![],
        recv_stream: vec![],
    };
    let body_with = |conn: TcpSnapshot| {
        let bytes = PodImage {
            sockets: vec![SockSnapshot::Conn(conn)],
            ..img.clone()
        }
        .encode();
        bytes[..bytes.len() - 8].to_vec()
    };
    let body = body_with(conn.clone());
    let offset_of = |other: Vec<u8>| body.iter().zip(&other).position(|(a, b)| a != b);
    let state_at = offset_of(body_with(TcpSnapshot {
        state: TcpState::Closed,
        ..conn.clone()
    }));
    let nodelay_at = offset_of(body_with(TcpSnapshot {
        nodelay: true,
        ..conn.clone()
    }));
    for (at, byte) in [(state_at, 10), (nodelay_at, 2)] {
        let mut damaged = body.clone();
        damaged[at.expect("the field is encoded")] = byte;
        assert_eq!(
            PodImage::decode(&seal(&damaged)),
            Err(ImageError::BadTag(byte))
        );
    }

    // A page payload one byte short of a page, or one byte over, is
    // refused rather than padded or handed to the restore.
    let page = PAGE_SIZE as usize;
    for len in [page - 1, page + 1] {
        let mut img = img.clone();
        img.groups.push(GroupImage {
            areas: vec![],
            pages: vec![(0x1000, page_with(&[1]))],
            fds: vec![],
        });
        let (bytes, cuts) = img.encode_with_page_cuts();
        let (at, _) = cuts[0];
        let mut body = bytes[..at - 8].to_vec();
        body.extend_from_slice(&(len as u64).to_le_bytes());
        body.extend(std::iter::repeat_n(1u8, len));
        body.extend_from_slice(&bytes[at + page..bytes.len() - 8]);
        assert_eq!(
            PodImage::decode(&seal(&body)),
            Err(ImageError::BadPage(len as u64))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn resealed_mutations_decode_or_fail_cleanly(img in arb_image(), m in arb_mutation()) {
        let bytes = img.encode();
        let mut body = bytes[..bytes.len() - 8].to_vec();
        mutate(&mut body, &m);
        // Rejected, or decoded to an image that encodes to these very
        // bytes; a panic or an abort fails the test.
        prop_assert!(canonical(&seal(&body)));
    }

    // The decoder contract `CtlMsg` and `FaultPlan` keep: arbitrary bytes
    // never panic, and only an image's own encoding decodes to it.
    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(
        // Small bytes make valid tags and flags, hence accepted fields,
        // common.
        junk in proptest::collection::vec(prop_oneof![0u8..3, any::<u8>()], 0..200),
    ) {
        prop_assert!(canonical(&junk));
        let mut body = header().body().to_vec();
        body.extend_from_slice(&junk);
        prop_assert!(canonical(&seal(&body)));
    }

    #[test]
    fn damaged_images_are_rejected_or_canonical(
        img in arb_image(),
        at in any::<usize>(),
        byte in prop_oneof![0u8..3, 9u8..11, any::<u8>()],
        keep in any::<usize>(),
        extra in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let bytes = img.encode();
        prop_assert!(canonical(&bytes));
        let body = &bytes[..bytes.len() - 8];
        let mut replaced = body.to_vec();
        replaced[at % body.len()] = byte;
        prop_assert!(canonical(&seal(&replaced)), "byte {} set to {byte}", at % body.len());
        prop_assert!(canonical(&seal(&body[..keep % body.len()])), "truncation");
        prop_assert!(canonical(&seal(&[body, &extra].concat())), "extension");
    }

    #[test]
    fn arbitrary_images_round_trip(img in arb_image()) {
        let bytes = img.encode();
        let back = PodImage::decode(&bytes).expect("valid image decodes");
        prop_assert_eq!(img, back);
    }

    #[test]
    fn single_byte_corruption_is_always_detected(
        img in arb_image(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut bytes = img.encode();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        // Either the checksum catches it, or (if the flip is in the
        // checksum itself) the mismatch is still an error. A silent wrong
        // decode is the only forbidden outcome.
        match PodImage::decode(&bytes) {
            Err(_) => {}
            Ok(decoded) => prop_assert_eq!(decoded, img, "decode must not silently differ"),
        }
    }

    #[test]
    fn truncation_is_always_detected(img in arb_image(), cut_frac in 0.0f64..1.0) {
        let bytes = img.encode();
        let keep = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        let r = PodImage::decode(&bytes[..keep]);
        prop_assert!(r.is_err(), "truncated image must not decode");
        let _ = matches!(r, Err(ImageError::Truncated) | Err(ImageError::BadChecksum));
    }

    #[test]
    fn sealed_encode_is_encode_plus_its_chunk_id(img in arb_image()) {
        let bytes = img.encode();
        let sealed = img.seal();
        prop_assert_eq!(sealed.bytes(), &bytes[..]);
        prop_assert_eq!(ChunkId::from(sealed.digest()), ChunkId::of(&bytes));
        let (cut_sealed, cuts) = img.seal_with_page_cuts();
        prop_assert_eq!(&cut_sealed, &sealed);
        prop_assert_eq!((bytes.clone(), cuts), img.encode_with_page_cuts());
        prop_assert_eq!(img.encoded_len(), bytes.len());
        prop_assert_eq!(sealed.decode(), Ok(img));
    }

    #[test]
    fn seal_named_names_every_range_in_the_sealing_pass(img in arb_image(), chunk in 1usize..300) {
        let (bytes, cuts) = img.encode_with_page_cuts();
        let (body, body_cuts) = img.unsealed(Vec::new());
        let (sealed, ranges, names) =
            body.seal_named(|len| split_ranges(len, &body_cuts, chunk));
        prop_assert_eq!(&sealed, &img.seal());
        prop_assert_eq!(&ranges, &split_ranges(bytes.len(), &cuts, chunk));
        prop_assert_eq!(names.len(), ranges.len());
        for (&(s, l), &name) in ranges.iter().zip(&names) {
            prop_assert_eq!(ChunkId::from(name), ChunkId::of(&bytes[s..s + l]));
        }
    }

    #[test]
    fn one_pass_reader_matches_two_passes_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        assert_one_pass_matches_two(&bytes)?;
    }

    #[test]
    fn one_pass_reader_matches_two_passes_on_damaged_images(
        img in arb_image(),
        m in arb_mutation(),
    ) {
        let mut bytes = img.encode();
        assert_one_pass_matches_two(&bytes)?;
        mutate(&mut bytes, &m);
        assert_one_pass_matches_two(&bytes)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn plain_store_load_matches_get_image(img in arb_image(), damage in arb_damage()) {
        let cfg = StoreConfig::default();
        let sealed_fs = NetFs::new();
        let sealed_store = CheckpointStore::new(sealed_fs.clone(), "j");
        let plain_fs = NetFs::new();
        let plain_store = CheckpointStore::new(plain_fs.clone(), "j");
        let mut bytes = img.encode();
        let put = match damage {
            Damage::Written { at } => {
                // Damaged before the put: its one range is the whole image,
                // named by the image digest.
                flip_at(&mut bytes, at);
                sealed_store.prepare_chunked(&bytes, &[], &cfg)
            }
            _ => {
                let (body, cuts) = img.unsealed(Vec::new());
                sealed_store.prepare_sealed(body, |len| cfg.ranges(len, &cuts), &cfg)
            }
        };
        let digest = put.image_digest();
        sealed_store.put_prepared("p", 1, PreparedPut::Chunked(put)).unwrap();
        plain_store.put_prepared("p", 1, PreparedPut::Plain(bytes)).unwrap();
        // Capture's sealed put and an unsealed `Plain` put land the same
        // whole-image chunk, manifest and sidecar.
        prop_assert_eq!(tree(&sealed_fs), tree(&plain_fs));
        if let Damage::Stored { at } = damage {
            let chunk = sealed_store.chunk_path(digest);
            flip_file(&sealed_fs, &chunk, at);
        }
        let got = sealed_store.get_image("p", 1);
        if let Damage::Written { .. } = damage {
            // The sidecar pins the damaged bytes, so they are served and
            // the image's own checksum rejects them.
            prop_assert_eq!(
                got.as_deref().map(PodImage::decode),
                Some(Err(ImageError::BadChecksum))
            );
        }
        assert_load_matches_get(sealed_store.read_sealed("p", 1), got)?;
    }

    #[test]
    fn chunked_store_load_matches_get_image(img in arb_image(), damage in arb_damage()) {
        let fs = NetFs::new();
        let store = CheckpointStore::new(fs.clone(), "j");
        let cfg = StoreConfig { chunk_bytes: 64, ..StoreConfig::dedup_compress() };
        let split = |len: usize, cuts: &[(usize, usize)]| split_ranges(len, cuts, cfg.chunk_bytes);
        let (mut bytes, cuts) = img.encode_with_page_cuts();
        let put = match damage {
            Damage::Written { at } => {
                // Damaged before the put: named by folding each range.
                flip_at(&mut bytes, at);
                store.prepare_chunked(&bytes, &cuts, &cfg)
            }
            _ => {
                let (body, cuts) = img.unsealed(Vec::new());
                store.prepare_sealed(body, |len| split(len, &cuts), &cfg)
            }
        };
        let reference = store.prepare_chunked(&bytes, &cuts, &cfg);
        prop_assert_eq!(put.manifest(), reference.manifest());
        prop_assert_eq!(put.image_digest(), reference.image_digest());
        store.put_prepared("p", 1, PreparedPut::Chunked(put)).unwrap();
        if let Damage::Stored { at } = damage {
            let chunks = store.live_chunks();
            let victim = chunks[((chunks.len() - 1) as f64 * at) as usize];
            flip_file(&fs, &store.chunk_path(victim), at);
        }
        let got = store.get_image("p", 1);
        assert_load_matches_get(store.read_sealed("p", 1), got)?;
    }

    #[test]
    fn replicated_load_matches_get_image_with_one_corrupt_replica(
        img in arb_image(),
        victim in 0usize..3,
        at in 0.0f64..1.0,
    ) {
        let fs = NetFs::new();
        let rs = ReplicatedStore::new(fs.clone(), "j", 3);
        let cfg = StoreConfig::default();
        let (body, cuts) = img.unsealed(Vec::new());
        let put = rs.prepare_sealed(body, |len| cfg.ranges(len, &cuts), &cfg);
        let digest = put.image_digest();
        rs.put_prepared("p", 1, PreparedPut::Chunked(put)).unwrap();
        rs.commit(1);
        let chunk = rs.replica(victim).chunk_path(digest);
        flip_file(&fs, &chunk, at);
        let got = rs.get_image("p", 1);
        prop_assert_eq!(got.as_deref(), Some(&img.encode()[..]));
        let load = rs.read_sealed("p", 1);
        prop_assert_eq!(load.as_ref().map(Sealed::decode).ok(), Some(Ok(img)));
        assert_load_matches_get(load, got)?;
    }

    /// Capture writes into a buffer the filesystem lends, and restore
    /// assembles into one: a reused buffer, larger than needed and full of
    /// another image's bytes, changes no byte, manifest or digest.
    #[test]
    fn reused_buffers_change_no_stored_or_read_byte(
        img in arb_image(),
        junk in any::<u8>(),
        extra in 0usize..4096,
        dedup in any::<bool>(),
    ) {
        let cfg = if dedup {
            StoreConfig { chunk_bytes: 64, ..StoreConfig::dedup_compress() }
        } else {
            StoreConfig::default()
        };
        let fresh_fs = NetFs::new();
        let fresh = CheckpointStore::new(fresh_fs.clone(), "j");
        let (body, cuts) = img.unsealed(Vec::new());
        let want = fresh.prepare_sealed(body, |len| cfg.ranges(len, &cuts), &cfg);
        let fs = NetFs::new();
        let store = CheckpointStore::new(fs.clone(), "j");
        let (body, reused_cuts) = img.unsealed(vec![junk; img.encoded_len() + extra]);
        prop_assert_eq!(&reused_cuts, &cuts);
        let got = store.prepare_sealed(body, |len| cfg.ranges(len, &cuts), &cfg);
        prop_assert_eq!(got.manifest(), want.manifest());
        prop_assert_eq!(got.image_digest(), want.image_digest());
        fresh.put_prepared("p", 1, PreparedPut::Chunked(want)).unwrap();
        store.put_prepared("p", 1, PreparedPut::Chunked(got)).unwrap();
        prop_assert_eq!(tree(&fs), tree(&fresh_fs));

        fs.give_back(vec![junk; SPARE_MIN_CAPACITY + extra]);
        let misses = fs.lend_misses();
        let (lent, _) = store.read_stored("p", 1).unwrap();
        prop_assert_eq!(fs.lend_misses(), misses, "the read assembles into the spare");
        prop_assert_eq!(lent, store.read_sealed("p", 1).unwrap());
    }
}

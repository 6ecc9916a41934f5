"""Sparse ``MemoryImage`` against a dense reference model.

``MemoryImage`` keeps its good image as ``{page: array}`` of the
non-zero pages only, and its taint as a set of word indices.  The
:class:`DenseImage` oracle below keeps the straightforward
representation instead — a full copy of the words as the good image and
a ``bytearray`` of per-word taint bits with a separate count — and
random operation sequences must leave both models indistinguishable
through every observable: words, tainted words, dirty pages, the words
that differ from the good image, pristineness, allocation addresses,
restore page counts and the OS pages written since creation.
"""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.composite.memory import (
    INITIAL_ALLOC_PTR,
    PAGE_SHIFT,
    PAGE_WORDS,
    STACK_WORDS,
    _PAGES_PER_OS_PAGE,
    MemoryImage,
)
from repro.composite.machine import WORD_MASK
from repro.errors import ReproError
from repro.system import build_system

BASE = 0x0300_0000

class DenseImage:
    """Reference model: full-copy good image, per-word taint bytes."""

    def __init__(self, size: int):
        self.size = size
        self.words = array("I", bytes(4 * size))
        self.taint = bytearray(size)
        self.taint_count = 0
        self.dirty = bytearray((size + PAGE_WORDS - 1) >> PAGE_SHIFT)
        self.written = set()
        self.alloc_ptr = INITIAL_ALLOC_PTR
        self.good_words = None
        self.good_alloc_ptr = None
        self.free_lists = {}

    def write_word(self, index: int, value: int, tainted: bool) -> None:
        self.words[index] = value & WORD_MASK
        self.dirty[index >> PAGE_SHIFT] = 1
        self.written.add(index >> PAGE_SHIFT)
        if tainted and not self.taint[index]:
            self.taint[index] = 1
            self.taint_count += 1
        elif not tainted and self.taint[index]:
            self.taint[index] = 0
            self.taint_count -= 1

    def alloc(self, nwords: int) -> int:
        free = self.free_lists.get(nwords)
        if free:
            return free.pop()
        if self.alloc_ptr + nwords > self.size - STACK_WORDS:
            raise ReproError("component heap exhausted")
        index = self.alloc_ptr
        self.alloc_ptr += nwords
        return index

    def free(self, index: int, nwords: int) -> None:
        end = index + nwords
        self.words[index:end] = array("I", bytes(4 * nwords))
        self.taint_count -= self.taint.count(1, index, end)
        self.taint[index:end] = bytes(nwords)
        for page in range(index >> PAGE_SHIFT, ((end - 1) >> PAGE_SHIFT) + 1):
            self.dirty[page] = 1
            self.written.add(page)
        self.free_lists.setdefault(nwords, []).append(index)

    def freeze(self) -> None:
        self.good_words = self.words[:]
        self.good_alloc_ptr = self.alloc_ptr
        self.dirty[:] = bytes(len(self.dirty))

    def _copy_back(self) -> int:
        if self.good_words is None:
            raise ReproError("no good image frozen; cannot restore")
        restored = 0
        for page, flag in enumerate(self.dirty):
            if flag:
                lo = page << PAGE_SHIFT
                hi = min(lo + PAGE_WORDS, self.size)
                self.words[lo:hi] = self.good_words[lo:hi]
                self.dirty[page] = 0
                restored += 1
        # Every tainted word goes, even one frozen into the good image
        # while tainted (so on a clean page): clearing only the dirty
        # pages' bits left such a word set while the count read zero.
        self.taint[:] = bytes(self.size)
        self.taint_count = 0
        return restored

    def restore(self, alloc_ptr=None) -> int:
        restored = self._copy_back()
        self.alloc_ptr = (
            self.good_alloc_ptr if alloc_ptr is None else alloc_ptr
        )
        self.free_lists.clear()
        return restored

    def modified_word_offsets(self, page: int):
        if self.good_words is None:
            return []
        lo = page << PAGE_SHIFT
        hi = min(lo + PAGE_WORDS, self.size)
        return [i for i in range(lo, hi) if self.words[i] != self.good_words[i]]

    def is_pristine(self) -> bool:
        return self.taint_count == 0 and 1 not in self.dirty


def _outcome(call):
    """``call()``'s result, or the error class and message it raised."""
    try:
        return call()
    except ReproError as exc:
        return ("error", str(exc))


def _apply(op, image: MemoryImage, dense: DenseImage, blocks):
    """Apply one drawn operation to both models; returns both results."""
    name = op[0]
    if name == "write":
        __, offset, value, tainted = op
        index = offset % image.size
        image.write_word(image.base + index, value, tainted=tainted)
        dense.write_word(index, value, tainted)
        return None, None
    if name == "corrupt":
        __, offset, value = op
        index = offset % image.size
        image.corrupt_word(image.base + index, value)
        dense.write_word(index, value, True)
        return None, None
    if name == "alloc":
        nwords = op[1]
        got = _outcome(lambda: image.alloc(nwords))
        want = _outcome(lambda: dense.alloc(nwords))
        if isinstance(got, int):
            got -= image.base
            blocks.append((got, nwords))
        return got, want
    if name == "free":
        if blocks:
            index, nwords = blocks.pop(op[1] % len(blocks))
            image.free(image.base + index, nwords)
            dense.free(index, nwords)
        return None, None
    if name == "freeze":
        image.freeze_good_image()
        dense.freeze()
        return None, None
    if name == "restore":
        return _outcome(image.restore), _outcome(dense.restore)
    if name == "restore_initial":
        return (
            _outcome(image.restore_initial),
            _outcome(lambda: dense.restore(INITIAL_ALLOC_PTR)),
        )
    assert name == "micro_reboot"

    def dense_reboot() -> None:
        dense.restore()

    return _outcome(image.micro_reboot), _outcome(dense_reboot)


def _check(image: MemoryImage, dense: DenseImage) -> None:
    assert image.words == dense.words
    tainted = {i for i, bit in enumerate(dense.taint) if bit}
    assert image._taint == tainted
    assert image.taint_count == dense.taint_count == len(tainted)
    for index in tainted:
        assert image.is_tainted(image.base + index)
    assert image.dirty_page_indices() == [
        page for page, flag in enumerate(dense.dirty) if flag
    ]
    assert image.dirty_page_count == dense.dirty.count(1)
    for page in range(len(dense.dirty)):
        assert image.modified_word_offsets(page) == (
            dense.modified_word_offsets(page)
        )
    assert image.is_pristine() == dense.is_pristine()
    assert image._alloc_ptr == dense.alloc_ptr
    assert image.written_os_pages == len(
        {page // _PAGES_PER_OS_PAGE for page in dense.written}
    )


def _good_pages_of(words: array, size: int):
    """The non-zero pages of a dense good image, as the sparse form."""
    pages = {}
    for lo in range(0, size, PAGE_WORDS):
        page = array("I", words[lo:min(lo + PAGE_WORDS, size)])
        if any(page):
            pages[lo >> PAGE_SHIFT] = page
    return pages


_VALUES = st.one_of(st.just(0), st.integers(0, WORD_MASK))
#: Mostly a few hot words, so sequences often rewrite a word (back to
#: zero, too) and a page can go from non-zero to zero between freezes.
_OFFSETS = st.one_of(
    st.sampled_from([0, 5, PAGE_WORDS - 1, PAGE_WORDS, 3 * PAGE_WORDS + 7]),
    st.integers(0, 1 << 12),
)
_OPS = st.one_of(
    st.tuples(st.just("write"), _OFFSETS, _VALUES, st.booleans()),
    st.tuples(st.just("corrupt"), _OFFSETS, _VALUES),
    st.tuples(st.just("alloc"), st.integers(1, 300)),
    st.tuples(st.just("free"), st.integers(0, 64)),
    st.tuples(st.just("freeze")),
    st.tuples(st.just("restore")),
    st.tuples(st.just("restore_initial")),
    st.tuples(st.just("micro_reboot")),
)


@settings(max_examples=200, deadline=None)
@given(
    # A whole number of pages, and one with a short last page.
    size=st.sampled_from([STACK_WORDS + 4 * PAGE_WORDS, STACK_WORDS + 293]),
    ops=st.lists(_OPS, max_size=40),
)
def test_sparse_image_matches_dense_model(size, ops):
    image = MemoryImage(BASE, size)
    dense = DenseImage(size)
    blocks = []
    for op in ops:
        got, want = _apply(op, image, dense, blocks)
        assert got == want, op
        _check(image, dense)
        if dense.good_words is not None:
            assert image._good_pages == _good_pages_of(dense.good_words, size)


def test_booted_good_images_hold_exactly_their_nonzero_pages():
    system = build_system("superglue")
    for name, component in system.kernel.components.items():
        image = component.image
        assert image._good_pages is not None, name
        assert image._good_pages == _good_pages_of(image.words, image.size), name
        assert all(any(page) for page in image._good_pages.values()), name


@pytest.mark.parametrize("size", [PAGE_WORDS * 8, PAGE_WORDS * 8 + 5])
def test_unwritten_pages_restore_from_zero(size):
    image = MemoryImage(BASE, size)
    image.freeze_good_image()
    assert image._good_pages == {}
    last = image.base + size - 1
    image.write_word(image.base + 3, 0xAB)
    image.corrupt_word(last, 0xCD)
    assert image.restore() == 2
    assert image.words == array("I", bytes(4 * size))
    assert image.taint_count == 0 and image.is_pristine()


def test_refreeze_drops_a_page_written_back_to_zero():
    image = MemoryImage(BASE, STACK_WORDS + 4 * PAGE_WORDS)
    image.write_word(image.base + PAGE_WORDS + 2, 9)
    image.freeze_good_image()
    assert sorted(image._good_pages) == [1]
    image.write_word(image.base + PAGE_WORDS + 2, 0)
    image.freeze_good_image()
    assert image._good_pages == {}
    image.write_word(image.base + PAGE_WORDS + 2, 4)
    image.restore()
    assert image.read_word(image.base + PAGE_WORDS + 2) == 0

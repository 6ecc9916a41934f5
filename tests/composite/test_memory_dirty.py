"""Dirty-page tracking and O(dirty) restore for memory images."""

from array import array

import pytest

from repro.composite.memory import (
    INITIAL_ALLOC_PTR,
    PAGE_WORDS,
    MemoryImage,
)
from repro.errors import ReproError

BASE = 0x0200_0000
SIZE = 4096


@pytest.fixture
def image():
    return MemoryImage(BASE, SIZE)


@pytest.fixture
def frozen():
    image = MemoryImage(BASE, SIZE)
    addr = image.alloc(8)
    for off in range(8):
        image.write_word(addr + off, 0x1000 + off)
    image.freeze_good_image()
    return image, addr


class TestDirtyBitmap:
    def test_freeze_clears_dirty(self, frozen):
        image, __ = frozen
        assert image.dirty_page_count == 0

    def test_write_marks_page(self, frozen):
        image, addr = frozen
        image.write_word(addr, 0xDEAD)
        assert image.dirty_page_count == 1
        assert image.is_page_dirty(addr - image.base)

    def test_writes_same_page_count_once(self, frozen):
        image, addr = frozen
        for off in range(8):
            image.write_word(addr + off, off)
        assert image.dirty_page_count == 1

    def test_writes_distinct_pages(self, frozen):
        image, __ = frozen
        image.write_word(BASE, 1)
        image.write_word(BASE + PAGE_WORDS, 2)
        image.write_word(BASE + 3 * PAGE_WORDS, 3)
        assert image.dirty_page_count == 3

    def test_corrupt_word_marks_dirty(self, frozen):
        # The taint-subset-of-dirty invariant: taint only enters via
        # writes, and every write marks its page.
        image, addr = frozen
        image.corrupt_word(addr, 0xBAD)
        assert image.taint_count == 1
        assert image.is_page_dirty(addr - image.base)


class TestRestore:
    def test_restore_copies_only_dirty_pages(self, frozen):
        image, addr = frozen
        image.write_word(addr, 0xDEAD)
        image.write_word(BASE + 2 * PAGE_WORDS, 0xBEEF)
        assert image.restore() == 2
        assert image.read_word(addr) == 0x1000
        assert image.read_word(BASE + 2 * PAGE_WORDS) == 0
        assert image.dirty_page_count == 0

    def test_restore_clears_taint(self, frozen):
        image, addr = frozen
        image.corrupt_word(addr, 0xBAD)
        image.corrupt_word(BASE + 2 * PAGE_WORDS + 7, 0xBAD)
        image.restore()
        assert image.taint_count == 0
        assert not image.is_tainted(addr)

    def test_restore_matches_full_good_image(self, frozen):
        # The O(dirty) restore must be indistinguishable from the old
        # whole-image memcpy.
        image, __ = frozen
        reference = array("I", image.words)  # a copy: a slice is a view
        for index in (0, 17, PAGE_WORDS + 3, SIZE - 1):
            image.write_word(BASE + index, 0xFFFF_FFFF, tainted=(index == 17))
        image.restore()
        assert image.words == reference
        assert image.taint_count == 0

    def test_restore_keeps_good_alloc_ptr(self, frozen):
        image, __ = frozen
        before = image._alloc_ptr
        image.alloc(16)
        image.restore()
        assert image._alloc_ptr == before

    def test_restore_initial_rewinds_allocator(self, frozen):
        # Pool restores replay reinit allocations at fresh-build
        # addresses, unlike micro-reboot (which keeps the post-init
        # allocator so reinit's re-allocations creep upward).
        image, __ = frozen
        image.restore_initial()
        assert image._alloc_ptr == INITIAL_ALLOC_PTR
        assert image.alloc(4) == BASE + INITIAL_ALLOC_PTR

    def test_restore_without_freeze_raises(self, image):
        with pytest.raises(ReproError):
            image.restore()

    def test_micro_reboot_uses_dirty_restore(self, frozen):
        image, addr = frozen
        image.write_word(addr, 0xDEAD)
        image.micro_reboot()
        assert image.read_word(addr) == 0x1000
        assert image.dirty_page_count == 0


class TestFreeSlice:
    def test_free_zeroes_block(self, frozen):
        image, addr = frozen
        image.free(addr, 8)
        assert all(image.read_word(addr + off) == 0 for off in range(8))

    def test_free_keeps_taint_census_exact(self, frozen):
        # Regression: free() used to clear words one write_word call at
        # a time; the slice-assignment path must drop exactly the freed
        # block's words from the taint set.
        image, addr = frozen
        image.corrupt_word(addr + 1, 0xBAD)
        image.corrupt_word(addr + 5, 0xBAD)
        outside = image.alloc(2)
        image.corrupt_word(outside, 0xBAD)
        assert image.taint_count == 3
        image.free(addr, 8)
        assert image.taint_count == 1
        assert len(image._taint) == image.taint_count
        assert not image.is_tainted(addr + 1)
        assert image.is_tainted(outside)

    def test_free_untainted_block(self, frozen):
        image, addr = frozen
        image.free(addr, 8)
        assert image.taint_count == 0
        assert len(image._taint) == 0

    def test_free_marks_pages_dirty(self, frozen):
        image, addr = frozen
        image.freeze_good_image()  # re-freeze with the block present
        image.free(addr, 8)
        assert image.dirty_page_count >= 1
        assert image.is_page_dirty(addr - image.base)

    def test_free_recycles_block(self, frozen):
        image, addr = frozen
        image.free(addr, 8)
        assert image.alloc(8) == addr

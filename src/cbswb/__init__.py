"""Workbench for congruence-lattice structure and CBS machinery on finite algebras."""
